// Monoid-law and byte-identity tests for the mergeable statistics
// accumulators. This file lives in the external test package so it can
// compare artifacts through the snapshot codec (which imports stats):
// every equality below is an equality of encoded snapshot bytes, the
// strongest form the service's content-addressed cache relies on.
package stats_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func partialBytes(t *testing.T, p *stats.Partial) []byte {
	t.Helper()
	b, err := snapshot.EncodeBytes(&snapshot.Artifact{Partial: p})
	if err != nil {
		t.Fatalf("encode partial: %v", err)
	}
	return b
}

func statsBytes(t *testing.T, s *stats.Stats) []byte {
	t.Helper()
	b, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: s})
	if err != nil {
		t.Fatalf("encode stats: %v", err)
	}
	return b
}

// mergeCase is one (tensor, frame) fixture shared by the law tests.
type mergeCase struct {
	name     string
	t        *tensor.COO
	tileDims []int
	order    []int
	opts     *stats.Options
}

func mergeCases(t *testing.T) []mergeCase {
	r := rand.New(rand.NewSource(11))
	return []mergeCase{
		{
			name:     "2d-powerlaw",
			t:        gen.PowerLawGraph(r, 256, 4000, 1.5),
			tileDims: []int{16, 16},
			order:    []int{1, 0},
		},
		{
			name:     "3d-skewed",
			t:        gen.RandomTensor3(r, 40, 50, 60, 2000, [3]float64{0, 0.5, 0}),
			tileDims: []int{8, 8, 8},
			order:    []int{2, 0, 1},
			opts:     &stats.Options{MicroDiv: 4, CorrSampleTarget: 64, TileCorrMaxShift: 16},
		},
		{
			name:     "2d-paper-only",
			t:        gen.PowerLawGraph(r, 128, 1500, 1.3),
			tileDims: []int{16, 16},
			order:    nil,
			opts:     &stats.Options{SkipExtensions: true},
		},
		{
			// Micro tile = base tile: the micro table is the base table
			// (the Fig. 7 collection setting).
			name:     "2d-micro-is-base",
			t:        gen.PowerLawGraph(r, 192, 3000, 1.4),
			tileDims: []int{16, 16},
			order:    []int{0, 1},
			opts:     &stats.Options{MicroDiv: 1},
		},
	}
}

// splitByTileParity partitions the tensor's entries into two
// tile-disjoint halves: every entry of a base tile lands on the side of
// the tile's coordinate-sum parity. Tile dims are chosen so micro tiles
// nest inside base tiles, keeping both key sets disjoint across parts.
func splitByTileParity(m *tensor.COO, tileDims []int) (*tensor.COO, *tensor.COO) {
	a, b := tensor.New(m.Dims...), tensor.New(m.Dims...)
	coord := make([]int, m.Order())
	for p := 0; p < m.NNZ(); p++ {
		parity := 0
		for ax := range coord {
			coord[ax] = m.Crds[ax][p]
			parity += coord[ax] / tileDims[ax]
		}
		if parity%2 == 0 {
			a.Append(coord, m.Vals[p])
		} else {
			b.Append(coord, m.Vals[p])
		}
	}
	return a, b
}

// TestPartialFinalizeMatchesCollect pins the collector to the direct
// reducer oracle: both CollectPartial → Finalize and Collect (Finalize
// over the materialized tiling's base table) must reproduce the oracle's
// statistics bundle byte-identically on the snapshot wire, at worker
// counts 1 and 8.
func TestPartialFinalizeMatchesCollect(t *testing.T) {
	for _, tc := range mergeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var o stats.Options
			if tc.opts != nil {
				o = *tc.opts
			}
			o.Workers = 1
			tt, err := tiling.New(tc.t, tc.tileDims, tc.order)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := stats.CollectDirect(tc.t, tt, &o)
			if err != nil {
				t.Fatal(err)
			}
			want := statsBytes(t, direct)
			var pb1 []byte
			for _, workers := range []int{1, 8} {
				o.Workers = workers
				p, err := stats.CollectPartial(tc.t, tc.tileDims, tc.order, &o)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					pb1 = partialBytes(t, p)
				} else if !bytes.Equal(pb1, partialBytes(t, p)) {
					t.Fatalf("partial bytes differ between workers 1 and %d", workers)
				}
				s, err := p.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, statsBytes(t, s)) {
					t.Fatalf("workers=%d: finalized partial differs from direct collection", workers)
				}
				c, _, err := stats.Collect(tc.t, tc.tileDims, tc.order, &o)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, statsBytes(t, c)) {
					t.Fatalf("workers=%d: Collect differs from direct collection", workers)
				}
			}
		})
	}
}

// TestMergeMonoidLaws checks the algebra the batch and delta paths rely
// on: commutativity, associativity, and the empty-tensor identity, all
// as snapshot-byte equalities, plus agreement of the merged partial with
// a from-scratch collection over the concatenated entries.
func TestMergeMonoidLaws(t *testing.T) {
	for _, tc := range mergeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var o stats.Options
			if tc.opts != nil {
				o = *tc.opts
			}
			o.Workers = 4
			collect := func(m *tensor.COO) *stats.Partial {
				p, err := stats.CollectPartial(m, tc.tileDims, tc.order, &o)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			half1, half2 := splitByTileParity(tc.t, tc.tileDims)
			double := make([]int, len(tc.tileDims))
			for a, td := range tc.tileDims {
				double[a] = 2 * td
			}
			quarter1, quarter2 := splitByTileParity(half1, double)
			pa, pb, pc := collect(quarter1), collect(quarter2), collect(half2)
			whole := collect(tc.t)
			empty := collect(tensor.New(tc.t.Dims...))

			ab, err := stats.Merge(pa, pb)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := stats.Merge(pb, pa)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(partialBytes(t, ab), partialBytes(t, ba)) {
				t.Fatal("Merge is not commutative")
			}

			abc1, err := stats.Merge(ab, pc)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := stats.Merge(pb, pc)
			if err != nil {
				t.Fatal(err)
			}
			abc2, err := stats.Merge(pa, bc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(partialBytes(t, abc1), partialBytes(t, abc2)) {
				t.Fatal("Merge is not associative")
			}

			if !bytes.Equal(partialBytes(t, abc1), partialBytes(t, whole)) {
				t.Fatal("merged partials differ from a from-scratch collection")
			}

			le, err := stats.Merge(empty, whole)
			if err != nil {
				t.Fatal(err)
			}
			re, err := stats.Merge(whole, empty)
			if err != nil {
				t.Fatal(err)
			}
			wb := partialBytes(t, whole)
			if !bytes.Equal(wb, partialBytes(t, le)) || !bytes.Equal(wb, partialBytes(t, re)) {
				t.Fatal("the empty collection is not a Merge identity")
			}

			sMerged, err := abc1.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			direct, _, err := stats.Collect(tc.t, tc.tileDims, tc.order, &o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(statsBytes(t, direct), statsBytes(t, sMerged)) {
				t.Fatal("finalized merge differs from direct collection")
			}
		})
	}
}

// TestMergeRejects pins the two refusal modes: mismatched collection
// frames and overlapping tile key sets (a tile split across partials).
func TestMergeRejects(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := gen.PowerLawGraph(r, 64, 600, 1.4)
	p16, err := stats.CollectPartial(m, []int{16, 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := stats.CollectPartial(m, []int{8, 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stats.Merge(p16, p8); err == nil || !strings.Contains(err.Error(), "frame mismatch") {
		t.Fatalf("frame mismatch not rejected: %v", err)
	}
	if _, err := stats.Merge(p16, p16); err == nil || !strings.Contains(err.Error(), "present in both") {
		t.Fatalf("overlapping tile keys not rejected: %v", err)
	}
}

// TestApplyDeltaMatchesConcat is the delta-ingest acceptance criterion:
// folding a coordinate delta into an existing partial must equal a
// from-scratch collection over the concatenated tensor, byte for byte,
// both as a partial and after Finalize, at worker counts 1 and 8 — while
// touching only the tiles the delta lands in.
func TestApplyDeltaMatchesConcat(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	base := gen.PowerLawGraph(r, 256, 4000, 1.5)
	base.Dedup()
	tileDims := []int{16, 16}
	order := []int{1, 0}

	seen := make(map[[2]int]bool, base.NNZ())
	for p := 0; p < base.NNZ(); p++ {
		seen[[2]int{base.Crds[0][p], base.Crds[1][p]}] = true
	}
	delta := tensor.New(base.Dims...)
	for delta.NNZ() < 120 {
		c := [2]int{r.Intn(base.Dims[0]), r.Intn(base.Dims[1])}
		if seen[c] {
			continue
		}
		seen[c] = true
		delta.Append([]int{c[0], c[1]}, r.NormFloat64())
	}

	concat := base.Clone()
	coord := make([]int, 2)
	for p := 0; p < delta.NNZ(); p++ {
		coord[0], coord[1] = delta.Crds[0][p], delta.Crds[1][p]
		concat.Append(coord, delta.Vals[p])
	}
	concat.Dedup()
	if concat.NNZ() != base.NNZ()+delta.NNZ() {
		t.Fatalf("delta collided with base: %d entries, want %d", concat.NNZ(), base.NNZ()+delta.NNZ())
	}

	for _, workers := range []int{1, 8} {
		o := &stats.Options{Workers: workers}
		pBase, err := stats.CollectPartial(base, tileDims, order, o)
		if err != nil {
			t.Fatal(err)
		}
		merged, rep, err := stats.ApplyDelta(pBase, base, delta, workers)
		if err != nil {
			t.Fatal(err)
		}
		pConcat, err := stats.CollectPartial(concat, tileDims, order, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(partialBytes(t, merged), partialBytes(t, pConcat)) {
			t.Fatalf("workers=%d: delta-applied partial differs from concat collection", workers)
		}
		sMerged, err := merged.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sConcat, _, err := stats.Collect(concat, tileDims, order, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(statsBytes(t, sMerged), statsBytes(t, sConcat)) {
			t.Fatalf("workers=%d: finalized delta stats differ from concat stats", workers)
		}
		if rep.TouchedTiles == 0 || rep.TouchedTiles > delta.NNZ() {
			t.Fatalf("implausible touched-tile count %d for %d delta entries", rep.TouchedTiles, delta.NNZ())
		}
		if rep.TouchedTiles >= rep.TotalTiles {
			t.Fatalf("delta touched %d of %d tiles — nothing was localized", rep.TouchedTiles, rep.TotalTiles)
		}
	}
}

// TestApplyDeltaRejects covers the guarded failure modes: duplicate
// coordinates inside the delta, out-of-range coordinates, and a base
// tensor that does not match the partial.
func TestApplyDeltaRejects(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := gen.PowerLawGraph(r, 64, 600, 1.4)
	base.Dedup()
	p, err := stats.CollectPartial(base, []int{8, 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dup := tensor.New(base.Dims...)
	dup.Append([]int{1, 1}, 1)
	dup.Append([]int{1, 1}, 2)
	if _, _, err := stats.ApplyDelta(p, base, dup, 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("intra-delta duplicate not rejected: %v", err)
	}

	wrongBase := tensor.New(base.Dims...)
	ok := tensor.New(base.Dims...)
	ok.Append([]int{0, 0}, 1)
	if _, _, err := stats.ApplyDelta(p, wrongBase, ok, 1); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Fatalf("mismatched base not rejected: %v", err)
	}
}

// TestPartialSnapshotRoundTrip pins the PART section codec: encode →
// decode → encode must be byte-identical, and the decoder must reject a
// partial whose tables were corrupted in flight.
func TestPartialSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := gen.PowerLawGraph(r, 128, 2000, 1.5)
	p, err := stats.CollectPartial(m, []int{16, 16}, []int{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := partialBytes(t, p)
	a, err := snapshot.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Partial == nil {
		t.Fatal("decoded artifact lost the partial section")
	}
	b2, err := snapshot.EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("partial snapshot round trip is not byte-identical")
	}

	// A decoded partial must come back usable: its finalization equals
	// the original's.
	s1, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Partial.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsBytes(t, s1), statsBytes(t, s2)) {
		t.Fatal("decoded partial finalizes differently")
	}

	bad := *p
	bad.NNZ++ // breaks entry-count conservation
	if _, err := snapshot.EncodeBytes(&snapshot.Artifact{Partial: &bad}); err != nil {
		t.Fatalf("encode does not validate: %v", err)
	}
	badBytes := partialBytes(t, &bad)
	if _, err := snapshot.DecodeBytes(badBytes); err == nil {
		t.Fatal("corrupted partial accepted by decoder")
	}
}

// TestPartialRejectsBadRestKeys pins the corr accumulator invariants
// Validate enforces: each position's rest keys ascend (Merge's sorted
// union and the canonical encoding assume it) and lie inside the rest
// range (Finalize packs them with the position). A partial breaking
// either fails Finalize and the snapshot decoder.
func TestPartialRejectsBadRestKeys(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	m := gen.PowerLawGraph(r, 128, 2000, 1.5)
	p, err := stats.CollectPartial(m, []int{16, 16}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, rest := p.CorrOff[0], p.CorrRest[0]
	k := 0
	for off[k+1]-off[k] < 2 || rest[off[k]] == rest[off[k+1]-1] {
		k++
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func([]uint64)
	}{
		{"unsorted", "not sorted", func(keys []uint64) {
			keys[off[k]], keys[off[k+1]-1] = keys[off[k+1]-1], keys[off[k]]
		}},
		{"out-of-range", "out of range", func(keys []uint64) {
			keys[off[k+1]-1] = uint64(m.Dims[1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *p
			bad.CorrRest = append([][]uint64(nil), p.CorrRest...)
			bad.CorrRest[0] = append([]uint64(nil), rest...)
			tc.corrupt(bad.CorrRest[0])
			if _, err := bad.Finalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finalize accepted corrupted rest keys: %v", err)
			}
			if _, err := snapshot.DecodeBytes(partialBytes(t, &bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decoder accepted corrupted rest keys: %v", err)
			}
		})
	}
}

// TestPartialRejectsKeysOutsideGrid: Finalize indexes grid-sized tables
// by each tile key's decoded coordinates, so a decoded partial whose
// keys still ascend but fall outside the tile grid, or carry bits
// outside their coordinate fields, must fail Validate — in Finalize and
// in the snapshot decoder — instead of panicking in Finalize.
func TestPartialRejectsKeysOutsideGrid(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := gen.PowerLawGraph(r, 80, 900, 1.5)
	p, err := stats.CollectPartial(m, []int{16, 16}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const lowField = 1<<tiling.KeyShift - 1
	for _, tc := range []struct {
		name, want string
		corrupt    func(*stats.Partial)
	}{
		{"base-low-field", "outside the", func(q *stats.Partial) {
			q.TileKeys = append([]uint64(nil), q.TileKeys...)
			last := len(q.TileKeys) - 1
			q.TileKeys[last] = q.TileKeys[last]&^lowField | 1<<20
		}},
		{"micro-low-field", "outside the", func(q *stats.Partial) {
			q.MicroKeys = append([]uint64(nil), q.MicroKeys...)
			last := len(q.MicroKeys) - 1
			q.MicroKeys[last] = q.MicroKeys[last]&^lowField | 1<<20
		}},
		{"stray-high-bits", "bits outside", func(q *stats.Partial) {
			q.TileKeys = append([]uint64(nil), q.TileKeys...)
			q.TileKeys[len(q.TileKeys)-1] |= 1 << 62
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *p
			tc.corrupt(&bad)
			if _, err := bad.Finalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finalize accepted corrupted tile keys: %v", err)
			}
			if _, err := snapshot.DecodeBytes(partialBytes(t, &bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decoder accepted corrupted tile keys: %v", err)
			}
		})
	}
}

// TestPartialKeyDistinct pins the content-address separation between
// finalized and accumulator artifacts for identical parameters.
func TestPartialKeyDistinct(t *testing.T) {
	id := "sha256:00"
	pk := snapshot.PartialKey(id, []int{16, 16}, []int{0, 1}, 8)
	sk := snapshot.StatsKey(id, []int{16, 16}, []int{0, 1}, 8)
	if pk == sk {
		t.Fatal("PartialKey collides with StatsKey")
	}
	if pk != snapshot.PartialKey(id, []int{16, 16}, []int{0, 1}, 8) {
		t.Fatal("PartialKey is not deterministic")
	}
}

// TestSummarizeFibersMatchCSF cross-checks, through the public stats
// path, that the fiber counts the merge path sums are the CSF's: the
// finalized ProbIndex of a partial must equal the direct reducer's on a
// tensor where every level has non-trivial fan-out.
func TestSummarizeFibersMatchCSF(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m := gen.RandomTensor3(r, 30, 30, 30, 1500, [3]float64{0.3, 0, 0.3})
	tt, err := tiling.New(m, []int{8, 8, 8}, []int{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := stats.CollectDirect(m, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stats.CollectPartial(m, []int{8, 8, 8}, []int{1, 2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for l := range direct.ProbIndex {
		if s.ProbIndex[l] != direct.ProbIndex[l] {
			t.Fatalf("ProbIndex[%d]: partial %v, direct %v", l, s.ProbIndex[l], direct.ProbIndex[l])
		}
		if s.PrTileIdx[l] != direct.PrTileIdx[l] {
			t.Fatalf("PrTileIdx[%d]: partial %v, direct %v", l, s.PrTileIdx[l], direct.PrTileIdx[l])
		}
	}
}
