// Command skinnymined serves SkinnyMine requests over HTTP from one
// pre-computed index — the paper's direct mining deployment (Figure 2):
// pay Stage I once, answer many (l, δ) requests online.
//
// Start from a snapshot (written by `skinnymine -snapshot` or a prior
// `skinnymined -save`; sharded manifests are detected automatically):
//
//	skinnymined -index city.idx -addr :8080
//
// or build the index from a graph file — optionally sharded, optionally
// persisting it:
//
//	skinnymined -input city.txt -support 2 -shards 4 -save city.idx
//
// Endpoints: POST /v1/mine (Options JSON in, ResultJSON out),
// POST /v1/batch (N requests, deduplicated, one scheduling pass),
// GET /v1/backbones?l=N, GET /healthz, GET /metrics. Example requests:
//
//	curl -s localhost:8080/v1/mine -d '{"length":4,"delta":1}'
//	curl -s localhost:8080/v1/batch \
//	    -d '{"requests":[{"length":4,"delta":1},{"length":5,"delta":1}]}'
//
// Observability: every response carries an X-Request-Id (echoed or
// generated, and forwarded to worker RPCs); /v1/mine?trace=1 wraps the
// result with its run's spans (served from the trace store on a cache
// hit); the always-on trace store retains the last -trace-store
// completed request traces — stitched across worker processes in
// distributed mode — behind GET /debug/traces (?id= for one span
// tree); /metrics?format=prom renders the Prometheus text exposition;
// -log-level/-log-format configure the structured log, -slow-query
// logs slow runs with their spans and a /debug/traces link, and
// -pprof mounts /debug/pprof/ in both daemon and worker mode. The
// skinnytop command renders these endpoints as a live dashboard. See
// the README's "Observability" section.
//
// # Distributed mining
//
// A sharded snapshot can also be served by a fleet: one worker process
// per shard file plus a coordinator that scatter/gathers Stage I
// candidate generation and runs the exact cross-shard merge locally.
//
//	skinnymined -worker city.idx.shard0-<crc> -addr :9001
//	skinnymined -worker city.idx.shard1-<crc> -addr :9002
//	skinnymined -index city.idx -workers localhost:9001,localhost:9002
//
// Worker addresses are positional — -workers lists shard 0's worker
// first — and every RPC is pinned to the manifest's shard checksum, so
// a miswired fleet fails loudly (409) instead of mining garbage. The
// coordinator retries transient worker failures with backoff, hedges
// stragglers (-worker-hedge-after), probes worker health in the
// background, and answers 503 — never a hang, never a partial result —
// when a shard stays unreachable past the retry budget. Output is
// byte-identical to serving the same snapshot in-process.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skinnymine"
	"skinnymine/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		index    = flag.String("index", "", "load an index snapshot (plain or sharded manifest) instead of building one")
		input    = flag.String("input", "", "graph file (text format) to build the index from")
		sigma    = flag.Int("support", 2, "frequency threshold σ when building from -input")
		shards   = flag.Int("shards", 0, "shard the index built from -input across this many partitions (0/1: unsharded)")
		save     = flag.String("save", "", "write the index snapshot to this file after loading/building")
		maxConc  = flag.Int("max-concurrent", 0, "mining runs admitted at once (0: 2× CPUs)")
		maxLen   = flag.Int("max-length", 0, "largest diameter length a request may ask for (0: 64)")
		maxBatch = flag.Int("max-batch", 0, "requests accepted per /v1/batch call (0: 64, negative: disable the endpoint)")
		cache    = flag.Int("cache", 0, "result cache entries (0: 256, negative: disable)")
		ixConc   = flag.Int("index-concurrency", 0, "index worker pool for backbones materialization (>0: that many, <0: one per CPU, 0: leave the index as configured)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")

		worker      = flag.String("worker", "", "serve Stage I for ONE shard snapshot file (worker mode; pairs with a coordinator's -workers)")
		workers     = flag.String("workers", "", "comma-separated worker addresses, one per shard in manifest order; turns -index into a distributed coordinator")
		workerTO    = flag.Duration("worker-timeout", 0, "per-attempt worker RPC timeout (0: 30s)")
		workerTries = flag.Int("worker-retries", -1, "worker RPC re-attempts after a retryable failure (negative: 2)")
		workerWait  = flag.Duration("worker-backoff", 0, "wait before the first worker retry, doubling per retry (0: 100ms)")
		workerHedge = flag.Duration("worker-hedge-after", 0, "duplicate a worker RPC not answered within this long (0: no hedging)")
		workerProbe = flag.Duration("worker-probe", 5*time.Second, "worker health probe period (0: no probing)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error (debug includes per-request access lines)")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		slowQuery = flag.Duration("slow-query", 0, "log mining runs at least this slow at warn level, with their stage spans (0: disabled)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (both daemon and worker mode)")
		traceKeep = flag.Int("trace-store", 0, "completed request traces retained for /debug/traces (0: 256, negative: disable the store)")
	)
	flag.Parse()

	if err := setupLogger(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "skinnymined:", err)
		os.Exit(2)
	}

	if *worker != "" {
		if *index != "" || *input != "" || *workers != "" {
			fmt.Fprintln(os.Stderr, "usage: skinnymined -worker <shard file> [-addr :9001] (worker mode takes no -index/-input/-workers)")
			os.Exit(2)
		}
		runWorker(*worker, *addr, *drain, *pprofOn)
		return
	}
	if (*index == "") == (*input == "") {
		fmt.Fprintln(os.Stderr, "usage: skinnymined (-index <snapshot> | -input <file> [-support σ] | -worker <shard file>) [-addr :8080]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *workers != "" && *index == "" {
		fmt.Fprintln(os.Stderr, "skinnymined: -workers requires -index (a sharded manifest)")
		os.Exit(2)
	}

	ix, err := openIndex(*index, *input, *sigma, *shards, *workers, skinnymine.DistributedConfig{
		WorkerTimeout: *workerTO,
		WorkerRetries: *workerTries,
		RetryBackoff:  *workerWait,
		HedgeAfter:    *workerHedge,
		ProbeInterval: *workerProbe,
	})
	if err != nil {
		fatal(err)
	}
	defer ix.Close()
	slog.Info("index ready", "graphs", ix.NumGraphs(), "sigma", ix.Sigma(),
		"shards", ix.Shards(), "materialized_levels", fmt.Sprint(ix.MaterializedLevels()))

	if *save != "" {
		if err := ix.WriteSnapshotFile(*save); err != nil {
			fatal(err)
		}
		slog.Info("snapshot saved", "path", *save)
	}

	srv, err := server.New(server.Config{
		Index: ix, MaxConcurrent: *maxConc, MaxLength: *maxLen,
		MaxBatch: *maxBatch, CacheSize: *cache, IndexConcurrency: *ixConc,
		Logger: slog.Default(), SlowQuery: *slowQuery, Pprof: *pprofOn,
		TraceStore: *traceKeep,
	})
	if err != nil {
		fatal(err)
	}
	serve(&http.Server{Addr: *addr, Handler: srv.Handler()}, *addr, *drain)
}

// setupLogger installs the process-wide structured logger per the
// -log-level and -log-format flags.
func setupLogger(level, format string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q (debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("bad -log-format %q (text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// runWorker serves one shard snapshot file's Stage I candidate
// generation until SIGINT/SIGTERM.
func runWorker(path, addr string, drain time.Duration, pprofOn bool) {
	w, err := skinnymine.LoadShardWorkerFile(path)
	if err != nil {
		fatal(err)
	}
	w.SetLogger(slog.Default())
	slog.Info("worker ready", "shard_file", path, "graphs", w.NumGraphs(),
		"sigma", w.Sigma(), "crc", fmt.Sprintf("%08x", w.CRC()))
	var h http.Handler = w
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", w)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		h = mux
	}
	serve(&http.Server{Addr: addr, Handler: h}, addr, drain)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains.
func serve(hs *http.Server, addr string, drain time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		slog.Info("serving", "addr", addr)
		done <- hs.ListenAndServe()
	}()

	select {
	case err := <-done:
		fatal(err) // bind failure or similar; ListenAndServe never returns nil here
	case <-ctx.Done():
	}
	slog.Info("shutting down", "drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	slog.Info("bye")
}

// openIndex loads a snapshot (plain or sharded, sniffed by magic) or
// builds the index — sharded when asked — from a graph file. A
// non-empty workerList turns a sharded manifest into a distributed
// coordinator over those workers.
func openIndex(snapshot, input string, sigma, shards int, workerList string, dcfg skinnymine.DistributedConfig) (*skinnymine.Index, error) {
	if snapshot != "" {
		if workerList != "" {
			dcfg.Workers = splitWorkers(workerList)
			ix, err := skinnymine.LoadDistributedIndexFile(snapshot, dcfg)
			if err != nil {
				return nil, err
			}
			slog.Info("loaded snapshot as distributed coordinator", "path", snapshot, "workers", len(dcfg.Workers))
			return ix, nil
		}
		ix, err := skinnymine.LoadIndexFile(snapshot)
		if err != nil {
			return nil, err
		}
		slog.Info("loaded snapshot", "path", snapshot)
		return ix, nil
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	graphs, err := skinnymine.ReadGraphs(f)
	if err != nil {
		return nil, err
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("no graphs in %s", input)
	}
	return skinnymine.BuildShardedIndex(graphs, sigma, shards)
}

// splitWorkers parses the -workers flag: comma-separated, whitespace
// tolerated, empties dropped.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skinnymined:", err)
	os.Exit(1)
}
