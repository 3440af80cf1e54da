// Command butterflyd is the long-running query daemon over the
// reproduction's engines: an HTTP/JSON API serving bisection widths,
// §4.3 expansion tables, Monte-Carlo routing statistics and the full
// E1–E17 report, with an LRU result cache, coalescing of concurrent
// identical queries, per-request deadlines, and explicit overload
// control (429/503).
//
// Responses reuse the run-manifest JSON schema of the CLI commands'
// -json flag (schema "repro/run-manifest", version 1), so a served
// answer and a paperrepro artifact are interchangeable downstream.
//
// Endpoints:
//
//	/v1/bisection?network=bn&n=1024[&exact-nodes=32][&timeout=5s]
//	/v1/expansion?kind=ee_wn&n=256[&d=1,2,3][&exact-nodes=32][&kmax=8]
//	/v1/routing?n=64[&kind=random|permutation|hotspot|bitreversal]
//	           [&trials=25][&seed=1][&drop=0,0.05,0.1][&dead=0.02]
//	           [&retransmits=4][&switching=sf|ct]
//	/v1/report[?quick=true][&seed=1]
//	/healthz          200 while serving, 503 while draining
//	/debug/metrics    live metrics registry (cache, latency, solver)
//	/debug/statusz    uptime, build/config, occupancy, latency quantiles
//
// Every query response carries an X-Request-ID header (the client's own,
// sanitized, or a generated one); the same ID labels the request's trace
// spans and its -access-log line, so one slow request can be chased
// across client, log and trace. With -access-log PATH the daemon appends
// one JSON line per query request (id, endpoint, status, outcome, cache
// source, latency µs, bytes) to PATH; "-" means stderr.
//
// The /v1/routing fault parameters drive the seeded lossy-link model:
// drop is the per-transmission loss probability (a comma-separated list
// sweeps a degradation curve, one row per rate), dead is the fraction of
// links killed for whole trials, retransmits bounds per-packet retries
// (0 = unbounded) and switching picks store-and-forward (sf) or
// cut-through (ct). A query whose every trial exhausts the 64·N step
// limit answers 422 instead of looping.
//
// Solver pools (-inflight, -precompute-workers and every engine's worker
// goroutines) default to the CPU count. On a machine with at least two
// CPUs and the default GOMAXPROCS, the daemon runs with one P more than
// it has CPUs, so a cache hit's connection is served while every CPU
// runs a solve instead of waiting for the runtime's periodic network
// poll. Two concurrent solves whose engines each start a full pool can
// still occupy that P.
//
// SIGINT/SIGTERM drain gracefully: in-flight solves are signalled to
// wind down, their handlers return best-so-far results marked non-exact
// (complete=false in the response's serve table), and the process exits
// once every response is written or -drain expires.
//
// With -store DIR the daemon keeps a persistent result store under DIR:
// LRU evictions spill to it, cache misses fall back to it (X-Cache:
// store-hit), and the drain flushes the surviving cache into it — so a
// restarted daemon answers everything the previous process ever solved
// from disk, no solver invoked. The store directory also holds the
// routing engine's compiled-index snapshot (routeindex.bfc), written at
// drain and reloaded at startup.
//
// With -precompute GRID the daemon runs as a batch filler instead of a
// server: it solves every missing point of the declared grid into the
// store and exits. GRID is a comma-separated list of
// network:loglo-loghi[:exact-nodes] ranges over log2(n), e.g.
// "bn:3-12,wn:2-8,ccc:3-8".
//
// Cluster mode shards the daemon across peers. -cluster-listen ADDR
// serves the cluster RPC protocol (CRC-framed codec records over TCP) on
// ADDR: forwarded queries, distributed branch-and-bound shard batches,
// and incumbent gossip. -peers lists every node's cluster address
// (identical on all nodes); with -coordinator this node additionally
// consistent-hashes each canonical request key over the peer ring and
// forwards queries it does not own — the answer is relayed verbatim with
// X-Cluster-Peer naming the owner. A peer that stops answering is
// benched (its keys reassign to the survivors) and queries fall back to
// local solving, so the cluster degrades instead of failing.
//
// Usage:
//
//	butterflyd [-addr localhost:8080] [-inflight 0] [-queue 0]
//	           [-queue-wait 2s] [-default-timeout 10s] [-max-timeout 60s]
//	           [-cache 256] [-cache-bytes 67108864] [-drain 30s]
//	           [-store dir] [-precompute grid] [-precompute-workers 0]
//	           [-cluster-listen addr] [-peers a,b,c] [-coordinator]
//	           [-trace path] [-access-log path] [-pprof addr]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"path/filepath"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/store"
)

// splitPeers parses the -peers list, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// reserveHTTPProc raises GOMAXPROCS by one on a machine with at least two
// CPUs, unless GOMAXPROCS was set to something other than the CPU count.
// Solver pools are sized by solve.Workers, which never counts that P, so
// it stays free for net/http. On one CPU the extra P only adds
// preemption between the hits and the one solve.
func reserveHTTPProc() {
	if cpus := runtime.NumCPU(); cpus >= 2 && runtime.GOMAXPROCS(0) == cpus {
		runtime.GOMAXPROCS(cpus + 1)
	}
}

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrent solves (0 = CPU count)")
	queue := flag.Int("queue", 0, "max requests waiting for a solve slot before 429 (0 = 4×inflight)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max time a queued request waits for a slot before 503")
	defaultTimeout := flag.Duration("default-timeout", 10*time.Second, "solve budget when the request names none")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested solve budgets")
	cacheEntries := flag.Int("cache", 256, "result-cache entries (LRU)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (evicts past either bound)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	storeDir := flag.String("store", "", "persistent result store directory (spill, warm start, precompute)")
	precompute := flag.String("precompute", "", "batch-fill the store for this grid (network:loglo-loghi[:exact-nodes],...) and exit")
	precomputeWorkers := flag.Int("precompute-workers", 0, "parallel solves during -precompute (0 = CPU count)")
	tracePath := flag.String("trace", "", "write request and solver trace events (JSONL) to this path")
	accessLogPath := flag.String("access-log", "", "append one JSON line per query request to this path (\"-\" = stderr)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof + /debug/metrics on this extra address")
	clusterListen := flag.String("cluster-listen", "", "serve the cluster RPC protocol on this address (peer mode)")
	peers := flag.String("peers", "", "comma-separated cluster addresses of every peer, this node included")
	coordinator := flag.Bool("coordinator", false, "consistent-hash request keys over -peers and forward queries to their owners")
	flag.Parse()

	cli.Validate(
		cli.NonNegative("inflight", *inflight),
		cli.NonNegative("queue", *queue),
		cli.Positive("cache", *cacheEntries),
		cli.NonNegative("precompute-workers", *precomputeWorkers),
	)
	if *precompute != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "butterflyd: -precompute requires -store")
		os.Exit(2)
	}
	reserveHTTPProc()
	peerList := splitPeers(*peers)
	if *coordinator && len(peerList) == 0 {
		fmt.Fprintln(os.Stderr, "butterflyd: -coordinator requires -peers")
		os.Exit(2)
	}
	if len(peerList) > 0 && *clusterListen == "" {
		fmt.Fprintln(os.Stderr, "butterflyd: -peers requires -cluster-listen (this node's own cluster address)")
		os.Exit(2)
	}

	var tracer *obs.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		tracer = obs.NewTracer(f)
	}

	// The access log appends (a restarted daemon keeps the history) and
	// tolerates "-" for stderr, handy under systemd-style capture.
	var accessLog io.Writer
	var accessFile *os.File
	if *accessLogPath == "-" {
		accessLog = os.Stderr
	} else if *accessLogPath != "" {
		f, err := os.OpenFile(*accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
			os.Exit(1)
		}
		accessFile = f
		accessLog = f
	}

	cli.StartPprof(*pprofAddr)

	// The persistent store and the routing engine's compiled-index
	// snapshot live side by side under -store: both are warm-start state.
	var st *store.Store
	var routeSnapshot string
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{Trace: tracer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "butterflyd: store %s holds %d results\n", *storeDir, st.Len())
		routeSnapshot = filepath.Join(*storeDir, "routeindex.bfc")
		// A stale or damaged snapshot is only a lost warm start, never
		// fatal: the engine rebuilds indices lazily.
		if n, err := route.LoadIndexCache(routeSnapshot); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: route index snapshot ignored: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "butterflyd: loaded %d compiled route indices\n", n)
		}
	}

	// Cluster wiring: the router (built first — the server config needs
	// it) forwards keys this node does not own; the node handler (built
	// after — it dispatches into the server's mux) answers forwarded
	// queries, shard batches and gossip on -cluster-listen.
	clusterTr := &cluster.TCPTransport{}
	var peerRouter serve.PeerRouter
	if *coordinator {
		peerRouter = cluster.NewRouter(*clusterListen, peerList, clusterTr, *maxTimeout, 2)
	}

	srv := serve.New(serve.Config{
		MaxInflight:     *inflight,
		MaxQueue:        *queue,
		QueueWait:       *queueWait,
		DefaultDeadline: *defaultTimeout,
		MaxDeadline:     *maxTimeout,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		Store:           st,
		Trace:           tracer,
		AccessLog:       accessLog,
		Peers:           peerRouter,
	})

	var clusterLn net.Listener
	if *clusterListen != "" {
		node := cluster.NewNode(*clusterListen, srv.Handler(), clusterTr, 0)
		var cerr error
		clusterLn, cerr = net.Listen("tcp", *clusterListen)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -cluster-listen: %v\n", cerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "butterflyd: cluster RPC on %s (%d peers)\n", clusterLn.Addr(), len(peerList))
		go func() {
			if serr := cluster.ServeTransport(clusterLn, node.Handle); serr != nil {
				fmt.Fprintf(os.Stderr, "butterflyd: cluster: %v\n", serr)
			}
		}()
	}

	if *precompute != "" {
		runPrecompute(srv, st, *precompute, *precomputeWorkers, traceFile, tracer)
		return
	}

	// Bind synchronously so an occupied port is an immediate exit-1, not
	// a daemon that looks alive and serves nothing.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "butterflyd: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "butterflyd: serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintf(os.Stderr, "butterflyd: draining (up to %s)\n", *drain)
	if clusterLn != nil {
		_ = clusterLn.Close() // stop accepting peer RPCs before the drain
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "butterflyd: serve: %v\n", err)
		os.Exit(1)
	}
	if st != nil {
		// Shutdown already flushed the drained cache into the store; what
		// remains is snapshotting the compiled route indices and closing.
		if n, err := route.SaveIndexCache(routeSnapshot); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: route index snapshot: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "butterflyd: snapshotted %d compiled route indices\n", n)
		}
		n := st.Len()
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "butterflyd: store flushed, %d results on disk\n", n)
	}
	if traceFile != nil {
		if err := tracer.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
		}
	}
	if err := srv.AccessLogErr(); err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
	}
	if accessFile != nil {
		if err := accessFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "butterflyd: drained cleanly")
}

// runPrecompute is the -precompute batch mode: solve every missing grid
// point into the store at the requested parallelism, report, exit. A
// SIGINT/SIGTERM stops feeding new points and lets in-flight solves
// finish.
func runPrecompute(srv *serve.Server, st *store.Store, spec string, workers int, traceFile *os.File, tracer *obs.Tracer) {
	grid, err := serve.ParseGrid(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "butterflyd: precomputing %d grid points\n", len(grid))
	res, err := srv.Precompute(ctx, grid, workers, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "butterflyd: "+format+"\n", args...)
	})
	fmt.Fprintf(os.Stderr, "butterflyd: precompute done in %s: %d solved, %d skipped, %d failed; store holds %d results\n",
		time.Since(start).Round(time.Millisecond), res.Solved, res.Skipped, res.Failed, st.Len())
	if cerr := st.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: store: %v\n", cerr)
		os.Exit(1)
	}
	if traceFile != nil {
		if terr := tracer.Err(); terr != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", terr)
		}
		if terr := traceFile.Close(); terr != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", terr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: %v\n", err)
		os.Exit(1)
	}
}
