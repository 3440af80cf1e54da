package exact

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/solve"
)

// The parallel expansion engine mirrors MinBisectionParallel: the decisions
// on the first prefixDepth nodes of the BFS order become independent
// subproblems distributed over a worker pool, all pruning against a shared
// atomic incumbent. Each worker owns one expState, reused across every
// subproblem (and, in ExpansionSurvey, across every k) — a prefix is placed,
// searched, and unplaced, so no per-job allocation or re-initialisation
// happens on the hot path.

// MinEdgeExpansionParallel computes EE(g,k) exactly on workers goroutines
// (workers ≤ 0 means solve.Workers). The optimum always equals
// MinEdgeExpansion's; the witness set may differ when several are optimal.
func MinEdgeExpansionParallel(g *graph.Graph, k, workers int) ([]int, int) {
	set, val, _ := minExpansionParallel(g, k, -1, workers, edgeExpansion, noBound, nil)
	return set, val
}

// MinEdgeExpansionParallelWithBound seeds the parallel search with a known
// achievable upper bound on EE(g,k) (a witness or greedy boundary), so
// pruning starts tight instead of from M+1. An unachievable bound falls
// back to an unseeded run; the result is exact either way.
func MinEdgeExpansionParallelWithBound(g *graph.Graph, k, workers, bound int) ([]int, int) {
	set, val, _ := minExpansionParallel(g, k, -1, workers, edgeExpansion, bound, nil)
	return set, val
}

// MinEdgeExpansionParallelContaining is the parallel form of
// MinEdgeExpansionContaining: exact on vertex-transitive networks, an upper
// bound elsewhere.
func MinEdgeExpansionParallelContaining(g *graph.Graph, k, root, workers int) ([]int, int) {
	checkRoot(g, root)
	set, val, _ := minExpansionParallel(g, k, root, workers, edgeExpansion, noBound, nil)
	return set, val
}

// MinNodeExpansionParallel computes NE(g,k) exactly on workers goroutines.
func MinNodeExpansionParallel(g *graph.Graph, k, workers int) ([]int, int) {
	set, val, _ := minExpansionParallel(g, k, -1, workers, nodeExpansion, noBound, nil)
	return set, val
}

// MinNodeExpansionParallelWithBound is the NE analogue of
// MinEdgeExpansionParallelWithBound.
func MinNodeExpansionParallelWithBound(g *graph.Graph, k, workers, bound int) ([]int, int) {
	set, val, _ := minExpansionParallel(g, k, -1, workers, nodeExpansion, bound, nil)
	return set, val
}

// MinNodeExpansionParallelContaining is the parallel form of
// MinNodeExpansionContaining.
func MinNodeExpansionParallelContaining(g *graph.Graph, k, root, workers int) ([]int, int) {
	checkRoot(g, root)
	set, val, _ := minExpansionParallel(g, k, root, workers, nodeExpansion, noBound, nil)
	return set, val
}

// expSearch is one (quantity, k) search sharing the worker pool with the
// other searches of a survey. rootForced and the BFS order are common to
// the whole pool.
type expSearch struct {
	k    int
	edge bool
	sb   sharedExpBound
}

// expJob is one prefix subproblem of one search.
type expJob struct {
	search *expSearch
	prefix []int8
}

func minExpansionParallel(g *graph.Graph, k, root, workers int, edge bool, bound int, mon *solve.Monitor) ([]int, int, bool) {
	checkSetSize(g, k)
	if k == 0 || k == g.N() {
		return prefixSet(k), 0, true
	}
	if g.N() < 16 {
		return minExpansion(g, k, root, edge, bound, mon) // not worth the fan-out
	}
	s := &expSearch{k: k, edge: edge}
	s.sb.mon = mon
	s.sb.best.Store(initialExpBest(g, edge, bound))
	order := expansionOrder(g, root)
	runExpansionSearches(g, order, []*expSearch{s}, root >= 0, workers, mon)
	if s.sb.set == nil {
		if s.sb.incomplete.Load() {
			set, val := fallbackExpansionSet(g, order, k, edge)
			return set, val, false
		}
		// bound was below the optimum: rerun unseeded.
		return minExpansionParallel(g, k, root, workers, edge, noBound, mon)
	}
	return s.sb.set, int(s.sb.best.Load()), !s.sb.incomplete.Load()
}

// runExpansionSearches drains every prefix subproblem of every search
// through one pool of workers. Searches are independent (each has its own
// incumbent), so all jobs are enqueued at once and the pool load-balances
// across them. On cancellation, jobs not run to completion mark their
// search incomplete; the pool always drains, so the call returns promptly
// with whatever incumbents were found.
func runExpansionSearches(g *graph.Graph, order []int32, searches []*expSearch, rootForced bool, workers int, mon *solve.Monitor) {
	n := g.N()
	workers = solve.Workers(workers)

	// Depth 8 gives up to 256 subproblems per search — plenty of slack for
	// load balancing without flooding memory with prefixes.
	prefixDepth := 8
	if prefixDepth > n/2 {
		prefixDepth = n / 2
	}

	var jobs []expJob
	for _, s := range searches {
		for _, p := range expansionPrefixes(n, prefixDepth, s.k, rootForced) {
			jobs = append(jobs, expJob{search: s, prefix: p})
		}
	}

	ch := make(chan expJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newExpState(g, order)
			st.mon = mon
			for job := range ch {
				s := job.search
				if mon.Stopped() {
					s.sb.incomplete.Store(true)
					continue
				}
				st.sb = &s.sb
				st.restartTicks()
				for i, side := range job.prefix {
					st.place(int(order[i]), side, s.edge)
				}
				// dfsExpansion re-checks the bound first thing, so prefixes
				// that are already prunable cost only the placements.
				dfsExpansion(st, len(job.prefix), s.k, s.edge, rootForced, &s.sb)
				for i := len(job.prefix) - 1; i >= 0; i-- {
					st.unplace(int(order[i]), s.edge)
				}
				st.flushTicks()
				if st.stopped {
					s.sb.incomplete.Store(true)
				}
			}
		}()
	}
	for _, j := range jobs {
		if mon.Stopped() {
			j.search.sb.incomplete.Store(true)
			continue
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// expansionPrefixes enumerates the decisions for the first depth nodes of
// the order that can still complete to a k-set: at most k inclusions, and
// enough nodes left after each exclusion. rootForced pins the first node
// into S.
func expansionPrefixes(n, depth, k int, rootForced bool) [][]int8 {
	var out [][]int8
	prefix := make([]int8, depth)
	var gen func(idx, inS int)
	gen = func(idx, inS int) {
		if idx == depth {
			cp := make([]int8, depth)
			copy(cp, prefix)
			out = append(out, cp)
			return
		}
		if inS < k {
			prefix[idx] = sideS
			gen(idx+1, inS+1)
		}
		if !(rootForced && idx == 0) && inS+(n-idx-1) >= k {
			prefix[idx] = sideSbar
			gen(idx+1, inS)
		}
	}
	gen(0, 0)
	return out
}
