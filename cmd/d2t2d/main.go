// Command d2t2d is the Data-Driven Tensor Tiling optimizer daemon: a
// long-running HTTP service that ingests sparse tensors, collects tile
// statistics once per tensor, and answers optimize/predict queries from
// a content-addressed artifact cache of binary snapshots.
//
// Usage:
//
//	d2t2d -addr :8421 -cache-dir d2t2d-cache -mem-cache-mb 64 -workers 4
//
// Endpoints:
//
//	POST /v1/tensors              ingest a .mtx/.tns upload or a JSON
//	                              {"gen": {"label": "C", "scale": 32}} spec
//	POST /v1/tensors/{id}/delta   append a coordinate delta; statistics
//	                              merge instead of re-collecting
//	POST /v1/optimize             run the D2T2 pipeline for a kernel
//	POST /v1/predict              price one tile configuration
//	POST /v1/batch                schedule many optimize jobs as one unit;
//	                              jobs sharing a tensor share one collection
//	GET  /v1/tensors/{id}/stats   collected statistics summary
//	GET  /healthz                 liveness, version and resident bytes
//	GET  /readyz                  readiness (503 while draining/degraded)
//	GET  /debug/vars              expvar counters
//
// With -peers (plus -self-url and a shared -cluster-secret) the daemon
// joins a static cluster: nodes agree on a consistent-hash owner per
// artifact, fetch warm artifacts from peers before recomputing, forward
// cold optimize/predict requests to the owner so identical cold work
// runs once fleet-wide, and replicate warm artifacts to ring
// successors. Peer traffic rides authenticated /internal/v1/* routes on
// the same listener.
//
// With -debug-addr a second, loopback-only listener additionally serves
// net/http/pprof profiles and the full expvar surface; it is off by
// default and never mounts on the service address.
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish (bounded by -drain-timeout), then ingest workers are joined.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"d2t2/internal/buildinfo"
	"d2t2/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "d2t2d:", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped so a trailing comma is harmless. Validation (scheme, host,
// duplicates) happens in serve.Config.validate.
func splitPeers(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("d2t2d", flag.ExitOnError)
	addr := fs.String("addr", ":8421", "listen address")
	cacheDir := fs.String("cache-dir", "d2t2d-cache", "artifact cache directory (empty = memory only)")
	memMB := fs.Int("mem-cache-mb", 64, "budget in MiB for everything kept in memory: artifacts, decoded tensors, decoded statistics bundles with their shape memos, and the raw request rung, in one LRU; without -cache-dir an evicted tensor must be uploaded again")
	workers := fs.Int("workers", 0, "ingest + cold-pipeline worker count (0 = all cores)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request compute deadline (queue wait + pipeline)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 0, "time allowed to read request headers (0 = default 5s)")
	readTimeout := fs.Duration("read-timeout", 0, "time allowed to read a whole request (0 = request-timeout + 30s)")
	writeTimeout := fs.Duration("write-timeout", 0, "time allowed to write a whole response (0 = request-timeout + 30s)")
	idleTimeout := fs.Duration("idle-timeout", 0, "keep-alive idle connection bound (0 = default 2m)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain bound")
	debugAddr := fs.String("debug-addr", "", "debug listen address for net/http/pprof + expvar (empty = disabled; bind loopback, e.g. 127.0.0.1:8422)")
	peers := fs.String("peers", "", "comma-separated peer base URLs (e.g. http://10.0.0.2:8421,http://10.0.0.3:8421); non-empty turns on clustering")
	selfURL := fs.String("self-url", "", "this node's own base URL as peers reach it (required with -peers)")
	clusterSecret := fs.String("cluster-secret", "", "shared secret authenticating internal peer routes (required with -peers; prefer D2T2_CLUSTER_SECRET)")
	replication := fs.Int("replication", 0, "ring successors each warm artifact replicates to (0 = default 1; at most the peer count)")
	peerTimeout := fs.Duration("peer-timeout", 0, "per-peer-call bound: artifact fetch, forward, replica push, ping (0 = default 5s)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("d2t2d", buildinfo.Version)
		return nil
	}

	// The secret is accepted from the environment too, so process lists
	// (ps, /proc cmdline) need not carry it; the flag wins when both are
	// set, for local experiments.
	secret := *clusterSecret
	if secret == "" {
		secret = os.Getenv("D2T2_CLUSTER_SECRET")
	}
	srv, err := serve.New(serve.Config{
		CacheDir:          *cacheDir,
		MemCacheBytes:     int64(*memMB) << 20,
		Workers:           *workers,
		RequestTimeout:    *reqTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		Peers:             splitPeers(*peers),
		SelfURL:           *selfURL,
		ClusterSecret:     secret,
		Replication:       *replication,
		PeerTimeout:       *peerTimeout,
	})
	if err != nil {
		return err
	}
	// The daemon runs one server per process, so its metrics map can be
	// published globally for the stdlib expvar handler ecosystem.
	expvar.Publish("d2t2d", srv.Vars())

	// The profiling surface is a SEPARATE listener, off by default:
	// pprof exposes heap contents and CPU control, so it never mounts on
	// the service address where it would face whatever faces the API.
	var dbg *http.Server
	dbgErr := make(chan error, 1)
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		// The channel send is the goroutine's join signal: shutdown
		// closes the listener and then receives the exit error below.
		go func() { dbgErr <- dbg.ListenAndServe() }()
		fmt.Fprintf(os.Stderr, "d2t2d: debug (pprof+expvar) on %s\n", *debugAddr)
	}
	stopDebug := func(ctx context.Context) error {
		if dbg == nil {
			return nil
		}
		err := dbg.Shutdown(ctx)
		if lerr := <-dbgErr; !errors.Is(lerr, http.ErrServerClosed) && err == nil {
			err = lerr
		}
		return err
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "d2t2d %s listening on %s (cache %q)\n", buildinfo.Version, *addr, *cacheDir)
	select {
	case err := <-errc:
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = stopDebug(ctx)
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "d2t2d: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = stopDebug(ctx)
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := stopDebug(ctx); err != nil {
			return fmt.Errorf("debug shutdown: %w", err)
		}
		return <-errc
	}
}
