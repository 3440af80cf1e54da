package exact

import (
	"context"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// This file is the context-aware entry point to the exact engines. The
// legacy Min* functions remain as uncancellable conveniences; Solve*
// accept a context.Context (deadline or cancellation), report telemetry,
// and — the key contract — mark results from an interrupted search
// Exact=false instead of silently presenting incumbents as optima.

// SolveOptions tune the context-aware solvers. The zero value runs an
// unseeded parallel search on one worker per CPU.
type SolveOptions struct {
	// Workers: 1 forces the serial engine, 0 (or <0) means solve.Workers,
	// anything else sets the pool size.
	Workers int
	// Bound > 0 seeds the incumbent with a known achievable value (a
	// witness or heuristic boundary); ≤ 0 searches unseeded. A bound
	// below the optimum falls back to an unseeded rerun, so a completed
	// solve is exact either way.
	Bound int
	// Containing forces Root into every candidate set (expansion solvers
	// only): exact on vertex-transitive networks, an upper bound
	// elsewhere.
	Containing bool
	Root       int
	// OnProgress, when non-nil, receives Progress snapshots every
	// ProgressInterval (≤ 0: 1s) from a dedicated goroutine.
	OnProgress       func(solve.Progress)
	ProgressInterval time.Duration
	// Label names the solve in progress lines and trace spans.
	Label string
	// Trace, when non-nil, receives the solve's span events.
	Trace *obs.Tracer
}

func (o SolveOptions) monitor(ctx context.Context) *solve.Monitor {
	return solve.Start(solve.Options{
		Ctx:        ctx,
		OnProgress: o.OnProgress,
		Interval:   o.ProgressInterval,
		Name:       o.Label,
		Trace:      o.Trace,
	})
}

// Result is the outcome of a context-aware expansion solve.
type Result struct {
	// Set is a feasible k-set; Value its measured boundary. When Exact,
	// Value is the certified optimum and Set a witness.
	Set   []int
	Value int
	// Exact reports whether the search ran to completion. False means
	// the solve was cancelled and Value is only an upper bound.
	Exact bool
	// Explored/Pruned count branch-and-bound nodes processed / subtrees
	// cut off by the admissible bound; Elapsed is the solve wall time.
	Explored int64
	Pruned   int64
	Elapsed  time.Duration
}

// BisectionResult is the outcome of a context-aware bisection solve.
type BisectionResult struct {
	Cut   *cut.Cut
	Width int
	// Exact reports completion; false means Width is the capacity of the
	// best bisection found before cancellation (an upper bound on BW).
	Exact    bool
	Explored int64
	Pruned   int64
	Elapsed  time.Duration
}

// SolveBisection computes BW(g) under ctx. On cancellation it returns the
// best bisection found so far with Exact=false; the cut is always a valid
// bisection.
func SolveBisection(ctx context.Context, g *graph.Graph, opts SolveOptions) BisectionResult {
	mon := opts.monitor(ctx)
	defer mon.Close()
	var (
		c     *cut.Cut
		w     int
		exact bool
	)
	if opts.Workers == 1 {
		bound := opts.Bound
		if bound <= 0 {
			bound = initialBisectionBound(g)
		}
		c, w, exact = minBisectionSearch(g, bound, mon)
	} else {
		c, w, exact = minBisectionParallelSearch(g, opts.Workers, opts.Bound, mon)
	}
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// SolveSubsetBisection computes BW(g, u) (§2.1) under ctx; serial (the
// subset solver has no parallel variant). Workers is ignored.
func SolveSubsetBisection(ctx context.Context, g *graph.Graph, u []int, opts SolveOptions) BisectionResult {
	mon := opts.monitor(ctx)
	defer mon.Close()
	c, w, exact := minSubsetBisectionSearch(g, u, mon)
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// SolveEdgeExpansion computes EE(g,k) under ctx. On cancellation it
// returns a feasible k-set (best incumbent, or the BFS-prefix fallback if
// none was found) with Exact=false.
func SolveEdgeExpansion(ctx context.Context, g *graph.Graph, k int, opts SolveOptions) Result {
	return solveExpansion(ctx, g, k, edgeExpansion, opts)
}

// SolveNodeExpansion is the NE(g,k) analogue of SolveEdgeExpansion.
func SolveNodeExpansion(ctx context.Context, g *graph.Graph, k int, opts SolveOptions) Result {
	return solveExpansion(ctx, g, k, nodeExpansion, opts)
}

func solveExpansion(ctx context.Context, g *graph.Graph, k int, edge bool, opts SolveOptions) Result {
	mon := opts.monitor(ctx)
	defer mon.Close()
	root := -1
	if opts.Containing {
		checkRoot(g, opts.Root)
		root = opts.Root
	}
	bound := noBound
	if opts.Bound > 0 {
		bound = opts.Bound
	}
	var (
		set   []int
		val   int
		exact bool
	)
	if opts.Workers == 1 {
		set, val, exact = minExpansion(g, k, root, edge, bound, mon)
	} else {
		set, val, exact = minExpansionParallel(g, k, root, opts.Workers, edge, bound, mon)
	}
	return Result{
		Set: set, Value: val, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}
