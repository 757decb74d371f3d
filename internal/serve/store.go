// Package serve implements the d2t2d tiling-optimizer service: a JSON
// HTTP API over the root d2t2 facade, backed by a content-addressed
// artifact cache of binary snapshots (internal/snapshot). Artifacts are
// keyed by SHA-256 content addresses, so identical tensors, statistics
// bundles and optimizer responses are stored and served exactly once.
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Source says where a Store lookup was satisfied.
type Source int

const (
	// SourceNone means the key was absent from every layer.
	SourceNone Source = iota
	// SourceMem means the in-memory LRU layer had the artifact.
	SourceMem
	// SourceDisk means the artifact was read from the on-disk layer.
	SourceDisk
	// SourcePeer means the artifact was fetched from a cluster peer —
	// produced by Server.storeGet's read-through rung, never by the
	// Store itself.
	SourcePeer
)

// Store is everything d2t2d keeps resident: a two-layer
// content-addressed cache, a bounded in-memory LRU in front of an
// optional on-disk layer. Keys of artifacts are content addresses of the
// form "sha256:<64 hex digits>" (snapshot.TensorID / StatsKey /
// ResponseKey); the disk layout shards on the first two hex digits:
//
//	<dir>/<hex[:2]>/<hex>.d2t2snap
//
// Writes to disk go through a temporary file and an atomic rename, so a
// crash never leaves a truncated artifact under its final name. Because
// keys are content addresses the store never overwrites meaningfully
// different data: a second Put for a key is by construction the same
// bytes (responses are canonical, snapshots deterministic).
//
// A memory entry holds artifact bytes and, optionally, a decoded value
// beside them (Keep); a value-only entry's key is not a content address,
// so it never reaches disk or peers. An entry is charged len(bytes) plus
// its value's estimated size and valueOverhead, re-charged when a value
// that grows in use is kept again; the least recently used entries go
// until the sum fits maxBytes, and an entry charged above the whole
// budget, or a value-only one above valueOnlyMax, never enters.
//
// A Store is safe for concurrent use.
type Store struct {
	dir      string // "" disables the disk layer
	maxBytes int64  // in-memory budget; <=0 disables the memory layer

	mu  sync.Mutex
	ll  *list.List               // front = most recently used
	idx map[string]*list.Element // key -> element whose Value is *storeEntry
	cur int64
}

type storeEntry struct {
	key   string
	data  []byte
	value any   // decoded value beside data; nil for a bytes-only entry
	size  int64 // the entry's charge against maxBytes
	seen  bool  // Seen asked for the entry before
}

// valueOverhead is what an entry carrying a value costs beyond the
// value's own estimate: its list element, index slot, entry struct and
// interface header.
const valueOverhead = 128

// valueOnlyMax caps a value-only (raw-rung) entry's charge, so padded
// repeats of one request body cannot flush the artifacts and tensors.
const valueOnlyMax = 64 << 10

// NewStore opens a store rooted at dir (created if missing; "" for a
// purely in-memory store) holding at most maxBytes of artifact bytes in
// memory.
func NewStore(dir string, maxBytes int64) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: create cache dir: %w", err)
		}
	}
	return &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		idx:      make(map[string]*list.Element),
	}, nil
}

// IsContentAddress reports whether key is a plain "sha256:<64 hex>"
// content address — the only key shape the store (and the cluster's
// internal artifact routes) accept, so a malicious key can never
// escape the cache directory or poison the memory layer.
func IsContentAddress(key string) bool {
	hex, ok := strings.CutPrefix(key, "sha256:")
	if !ok || len(hex) != 64 {
		return false
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps a content address to its on-disk location, rejecting
// anything that is not a plain content address.
func (s *Store) path(key string) (string, error) {
	if !IsContentAddress(key) {
		return "", fmt.Errorf("serve: malformed content address %q", key)
	}
	hex := strings.TrimPrefix(key, "sha256:")
	return filepath.Join(s.dir, hex[:2], hex+".d2t2snap"), nil
}

// Get returns the artifact bytes for key and the layer that served them,
// or (nil, SourceNone, nil) on a clean miss. The returned slice is
// shared with the cache and must be treated as read-only.
func (s *Store) Get(key string) ([]byte, Source, error) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*storeEntry).data
		s.mu.Unlock()
		return data, SourceMem, nil
	}
	s.mu.Unlock()

	if s.dir == "" {
		return nil, SourceNone, nil
	}
	p, err := s.path(key)
	if err != nil {
		return nil, SourceNone, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, SourceNone, nil
	}
	if err != nil {
		return nil, SourceNone, err
	}
	s.Keep(key, data, nil, 0)
	return data, SourceDisk, nil
}

// Value returns the decoded value resident beside key, if any, and
// marks the entry recently used. It never reads disk.
func (s *Store) Value(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	v := el.Value.(*storeEntry).value
	return v, v != nil
}

// Put stores the artifact bytes under key in both layers. The slice is
// retained by the memory layer and must not be mutated afterwards.
func (s *Store) Put(key string, data []byte) error {
	if s.dir != "" {
		p, err := s.path(key)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
		if err != nil {
			return err
		}
		_, werr := tmp.Write(data)
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			os.Remove(tmp.Name())
			if werr != nil {
				return werr
			}
			return cerr
		}
		if err := os.Rename(tmp.Name(), p); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	s.Keep(key, data, nil, 0)
	return nil
}

// Keep admits key to the memory layer only: its artifact bytes (nil for
// a value-only entry) and, when v is non-nil, the decoded value, charged
// at size bytes. A resident key keeps its bytes, and its value if it has
// one — keys are content addresses, so the first value is the value.
// Keeping the resident value again re-charges it at size, evicting
// until the budget fits: a value that grows while in use (a statistics
// bundle's shape memo) is charged what it holds when its user is done.
// Values must be comparable.
//
// Keep returns the value now resident for key and true, or v and false
// when the entry is not kept: charged above the whole budget (a resident
// value re-charged past it leaves with its entry), or, for a value-only
// entry, above valueOnlyMax or under a content address, where it would
// hide the artifact's bytes from Get.
func (s *Store) Keep(key string, data []byte, v any, size int64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, resident := s.idx[key]
	e := &storeEntry{key: key, data: data}
	if resident {
		s.ll.MoveToFront(el)
		if e = el.Value.(*storeEntry); v == nil || e.value != nil && e.value != v {
			return e.value, true
		}
	} else if data == nil && IsContentAddress(key) {
		return v, false
	}
	charge := int64(len(e.data))
	if v != nil {
		charge += size + valueOverhead
	}
	if charge > s.maxBytes || s.maxBytes <= 0 || e.data == nil && charge > valueOnlyMax {
		if resident && e.value != nil {
			s.remove(el)
		}
		return v, false
	}
	if !resident {
		s.idx[key] = s.ll.PushFront(e)
	}
	s.cur += charge - e.size
	e.value, e.size = v, charge
	for s.cur > s.maxBytes {
		s.remove(s.ll.Back())
	}
	return v, true
}

// Seen marks key's memory entry as seen and reports whether it was
// already; false when key is not resident. A caller that decodes an
// artifact keeps the decoded value only from the second decode on, so a
// value read once is not kept. The mark leaves with the entry.
func (s *Store) Seen(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		return false
	}
	e := el.Value.(*storeEntry)
	seen := e.seen
	e.seen = true
	return seen
}

// remove drops one entry from the memory layer. s.mu must be held.
func (s *Store) remove(el *list.Element) {
	e := el.Value.(*storeEntry)
	s.ll.Remove(el)
	delete(s.idx, e.key)
	s.cur -= e.size
}

// Writable probes the store's write path for the readiness check: a
// memory-only store is always writable; a disk-backed store must be
// able to create, write and remove a file under its root.
func (s *Store) Writable() error {
	if s.dir == "" {
		return nil
	}
	f, err := os.CreateTemp(s.dir, ".readyz-*")
	if err != nil {
		return fmt.Errorf("serve: store not writable: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("ok"))
	cerr := f.Close()
	rerr := os.Remove(name)
	for _, e := range []error{werr, cerr, rerr} {
		if e != nil {
			return fmt.Errorf("serve: store not writable: %w", e)
		}
	}
	return nil
}

// MemBytes reports the bytes currently charged to the memory layer:
// artifact bytes plus the estimated size of every resident value.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}
