package exact

import (
	"sync"
	"sync/atomic"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/solve"
)

// MinBisectionParallel computes the same optimum as MinBisection using a
// parallel branch and bound: the assignments of the first prefixDepth nodes
// become independent subproblems distributed over worker goroutines, all
// pruning against a shared atomic incumbent. The returned width is always
// the exact BW; the witness cut is one optimal bisection (which one may
// vary between runs when several are optimal).
func MinBisectionParallel(g *graph.Graph, workers int) (*cut.Cut, int) {
	c, w, _ := minBisectionParallelSearch(g, workers, 0, nil)
	return c, w
}

// minBisectionParallelSearch is the engine behind MinBisectionParallel and
// SolveBisection. bound > 0 additionally seeds the incumbent with a known
// achievable capacity (tighter than the internal BFS-prefix seed or not —
// the tighter of the two wins). The flag reports whether the search ran to
// completion; a stopped search returns the best incumbent so far (or the
// BFS-prefix seed), which is a valid bisection but not a certified
// optimum.
func minBisectionParallelSearch(g *graph.Graph, workers, bound int, mon *solve.Monitor) (*cut.Cut, int, bool) {
	n := g.N()
	if n < 16 {
		if bound <= 0 {
			bound = initialBisectionBound(g)
		}
		return minBisectionSearch(g, bound, mon) // not worth the fan-out
	}
	workers = solve.Workers(workers)

	// Depth 8 gives up to 256 subproblems — plenty of slack for load
	// balancing without flooding memory with prefixes.
	prefixDepth := 8
	if prefixDepth > n/2 {
		prefixDepth = n / 2
	}

	seedCut := initialBisection(g)
	start := seedCut.Capacity()
	seeded := bound > 0 && bound < start
	if seeded {
		start = bound
	}
	shared := sharedBound{mon: mon}
	shared.best.Store(int64(start + 1))

	// Enumerate prefix assignments with the same constraints as the serial
	// search (balance caps and the first-node symmetry fix).
	half := (n + 1) / 2
	var prefixes [][]int8
	var gen func(idx int, assign []int8, sizeS, sizeT int)
	gen = func(idx int, assign []int8, sizeS, sizeT int) {
		if idx == prefixDepth {
			cp := make([]int8, idx)
			copy(cp, assign[:idx])
			prefixes = append(prefixes, cp)
			return
		}
		for _, s := range []int8{sideS, sideSbar} {
			if idx == 0 && s != sideS {
				continue
			}
			if s == sideS && sizeS >= half {
				continue
			}
			if s == sideSbar && sizeT >= half {
				continue
			}
			assign[idx] = s
			if s == sideS {
				gen(idx+1, assign, sizeS+1, sizeT)
			} else {
				gen(idx+1, assign, sizeS, sizeT+1)
			}
		}
	}
	gen(0, make([]int8, prefixDepth), 0, 0)

	jobs := make(chan []int8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prefix := range jobs {
				if mon.Stopped() {
					continue // drain; remaining subtrees stay unexplored
				}
				st := newBBState(g)
				st.mon = mon
				for i, s := range prefix {
					st.place(int(st.order[i]), s)
				}
				// Prefixes can already be prunable.
				if st.curCut+st.minSum >= int(shared.best.Load()) {
					st.prunedTick++
					st.flushTicks()
					continue
				}
				parallelDFS(st, len(prefix), half, &shared)
				st.flushTicks()
			}
		}()
	}
	for _, p := range prefixes {
		jobs <- p
	}
	close(jobs)
	wg.Wait()

	stopped := mon.Stopped()
	if shared.side == nil {
		switch {
		case stopped:
			// Cancelled before anything beat the seed: the BFS-prefix
			// seed is feasible but not certified.
			return seedCut, seedCut.Capacity(), false
		case seeded:
			// The external bound undercut BW(g) (or equals it without a
			// witness): rerun with the internal seed only.
			return minBisectionParallelSearch(g, workers, 0, mon)
		default:
			// Nothing beat the seed: the seed is optimal.
			return seedCut, seedCut.Capacity(), true
		}
	}
	return cut.New(g, shared.side), int(shared.best.Load()), !stopped
}

// sharedBound is the incumbent shared across workers: best is read
// lock-free on every prune check; improvements take the mutex to update
// both the bound and the witness side consistently.
type sharedBound struct {
	best atomic.Int64
	mu   sync.Mutex
	side []bool
	mon  *solve.Monitor
}

func (sb *sharedBound) record(cur int, assign []int8) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if int64(cur) >= sb.best.Load() {
		return // someone else got there first
	}
	sb.best.Store(int64(cur))
	side := make([]bool, len(assign))
	for v, a := range assign {
		side[v] = a == sideS
	}
	sb.side = side
	sb.mon.SetIncumbent(int64(cur))
}

func parallelDFS(st *bbState, idx, half int, sb *sharedBound) {
	if st.tickNode() {
		return
	}
	if st.curCut+st.minSum >= int(sb.best.Load()) {
		st.prunedTick++
		return
	}
	if idx == st.g.N() {
		sb.record(st.curCut, st.assign)
		return
	}
	v := int(st.order[idx])
	first, second := sideS, sideSbar
	if st.cntSbar[v] < st.cntS[v] {
		first, second = sideSbar, sideS
	}
	for _, s := range []int8{first, second} {
		if s == sideS && st.sizeS >= half {
			continue
		}
		if s == sideSbar && st.sizeT >= half {
			continue
		}
		st.place(v, s)
		parallelDFS(st, idx+1, half, sb)
		st.unplace(v, s)
	}
}
