package exact

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/solve"
)

// The shard-level entry points below expose the BFS-prefix fan-out of the
// parallel expansion engine as an externally schedulable unit of work:
// expansionPrefixes splits one EE/NE search into up to 2^prefixDepth
// independent subproblems, and SearchExpansionShards runs any subset of
// them against a ShardIncumbent that can be tightened from outside while
// the search runs. internal/cluster uses this to distribute one search
// across peers — every peer prunes against the globally best witness seen
// so far (gossiped bound tightening), and a shard that a straggler never
// finishes can be re-run elsewhere, since shards are pure functions of
// (graph, spec, shard id).

// ExpansionShardSpec identifies one distributable expansion search: which
// quantity (edge or node boundary), the set size k, an optional forced
// root (Root ≥ 0: the Containing variants — exact on vertex-transitive
// networks, an upper bound elsewhere), and the prefix fan-out depth.
type ExpansionShardSpec struct {
	K    int
	Edge bool
	// Root < 0 searches all k-sets; Root ≥ 0 forces that node into S.
	Root int
	// PrefixDepth is the BFS-prefix depth of the fan-out (≤0: the engine
	// default of 8, clamped to n/2). All parties of one distributed search
	// must agree on it — shard ids index the prefix enumeration.
	PrefixDepth int
}

func (s ExpansionShardSpec) depth(n int) int {
	d := s.PrefixDepth
	if d <= 0 {
		d = 8
	}
	if d > n/2 {
		d = n / 2
	}
	return d
}

// Validate rejects specs no shard search can run.
func (s ExpansionShardSpec) Validate(g *graph.Graph) error {
	if s.K < 1 || s.K > g.N()-1 {
		return fmt.Errorf("exact: shard spec k=%d out of range [1, %d]", s.K, g.N()-1)
	}
	if s.Root >= g.N() {
		return fmt.Errorf("exact: shard spec root %d out of range (n=%d)", s.Root, g.N())
	}
	return nil
}

// ExpansionShardCount returns how many prefix shards spec fans out into on
// g. Shard ids 0..count-1 index the same deterministic enumeration on
// every party that agrees on (g, spec).
func ExpansionShardCount(g *graph.Graph, spec ExpansionShardSpec) int {
	return len(expansionPrefixes(g.N(), spec.depth(g.N()), spec.K, spec.Root >= 0))
}

// ShardIncumbent is the shared incumbent of one distributed expansion
// search: the best (value, witness) pair seen so far, tightened both by
// local leaf improvements and by Offer calls carrying remote witnesses.
// All methods are safe for concurrent use; one incumbent serves every
// SearchExpansionShards call of the same logical search on this process.
type ShardIncumbent struct {
	sb sharedExpBound
}

// NewShardIncumbent builds the incumbent of one (g, spec) search, starting
// one past the trivial maximum of the quantity (so the first feasible leaf
// always records). onImprove, when non-nil, receives every *locally* found
// improvement — value plus a private copy of the witness — and is the
// cluster's gossip hook; bounds injected via Offer do not echo through it.
func NewShardIncumbent(g *graph.Graph, spec ExpansionShardSpec, onImprove func(val int, set []int)) *ShardIncumbent {
	si := &ShardIncumbent{}
	si.sb.best.Store(initialExpBest(g, spec.Edge, noBound))
	si.sb.onRecord = onImprove
	return si
}

// Offer injects an incumbent achieved elsewhere. It tightens the bound
// (and adopts the witness) only if val strictly improves on the current
// best, so a stale or duplicated gossip message can never loosen the
// search — incumbent monotonicity holds under arbitrary message loss,
// reordering and replay. It reports whether the bound moved.
func (si *ShardIncumbent) Offer(val int, set []int) bool {
	return si.sb.offer(val, set)
}

// Best returns the current incumbent value and a copy of its witness (nil
// when nothing feasible has been seen yet).
func (si *ShardIncumbent) Best() (int, []int) {
	si.sb.mu.Lock()
	defer si.sb.mu.Unlock()
	if si.sb.set == nil {
		return int(si.sb.best.Load()), nil
	}
	set := make([]int, len(si.sb.set))
	copy(set, si.sb.set)
	return int(si.sb.best.Load()), set
}

// ShardOutcome reports one SearchExpansionShards call. Complete means
// every requested shard ran to exhaustion (nothing was abandoned on
// cancellation); only complete outcomes may count toward a certificate.
// Explored/Pruned are read from the monitor when one is supplied.
type ShardOutcome struct {
	Complete bool
	Explored int64
	Pruned   int64
}

// SearchExpansionShards runs the prefix shards named by ids (indices into
// the (g, spec) enumeration) on workers goroutines (≤0: solve.Workers),
// pruning against and recording into si. Out-of-range ids panic — they
// mean the parties disagree about the search geometry, which would
// silently miscertify. The search tree of each shard is explored exactly
// as the single-process parallel engine would explore it, so the union of
// all shards over any number of calls and processes covers the same
// leaves as one MinEdge/NodeExpansionParallel run.
func SearchExpansionShards(g *graph.Graph, spec ExpansionShardSpec, ids []int, workers int, si *ShardIncumbent, mon *solve.Monitor) ShardOutcome {
	if err := spec.Validate(g); err != nil {
		panic(err.Error())
	}
	n := g.N()
	rootForced := spec.Root >= 0
	prefixes := expansionPrefixes(n, spec.depth(n), spec.K, rootForced)
	for _, id := range ids {
		if id < 0 || id >= len(prefixes) {
			panic(fmt.Sprintf("exact: shard id %d out of range [0, %d)", id, len(prefixes)))
		}
	}
	order := expansionOrder(g, spec.Root)

	// The jobs share the caller's incumbent — that is the whole point of
	// the shard API — but completeness is tracked per call: a peer running
	// two batches concurrently must not let one batch's cancellation
	// uncertify the other.
	exploredBefore, prunedBefore := mon.Explored(), mon.Pruned()
	complete := runShardJobs(g, order, spec, prefixes, ids, rootForced, workers, si, mon)
	return ShardOutcome{
		Complete: complete,
		Explored: mon.Explored() - exploredBefore,
		Pruned:   mon.Pruned() - prunedBefore,
	}
}

// runShardJobs is runExpansionSearches specialized to one search and an
// explicit shard subset. It reports whether every shard ran to exhaustion.
func runShardJobs(g *graph.Graph, order []int32, spec ExpansionShardSpec, prefixes [][]int8, ids []int, rootForced bool, workers int, si *ShardIncumbent, mon *solve.Monitor) bool {
	workers = solve.Workers(workers)
	if workers > len(ids) && len(ids) > 0 {
		workers = len(ids)
	}
	var incomplete atomic.Bool
	ch := make(chan []int8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newExpState(g, order)
			st.mon = mon
			st.sb = &si.sb
			for prefix := range ch {
				if mon.Stopped() {
					incomplete.Store(true)
					continue
				}
				st.restartTicks()
				for i, side := range prefix {
					st.place(int(order[i]), side, spec.Edge)
				}
				dfsExpansion(st, len(prefix), spec.K, spec.Edge, rootForced, &si.sb)
				for i := len(prefix) - 1; i >= 0; i-- {
					st.unplace(int(order[i]), spec.Edge)
				}
				st.flushTicks()
				if st.stopped {
					incomplete.Store(true)
				}
			}
		}()
	}
	for _, id := range ids {
		if mon.Stopped() {
			incomplete.Store(true)
			continue
		}
		ch <- prefixes[id]
	}
	close(ch)
	wg.Wait()
	return !incomplete.Load()
}
