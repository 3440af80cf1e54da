package exact

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// NotComputed marks a SurveyResult quantity that was not requested.
const NotComputed = -1

// SurveyResult holds the exact expansion values certified for one set
// size. Quantities not requested by the survey options are NotComputed.
// The *Exact flags report certification: a false flag means the survey
// was cancelled before that search completed, and the value/set pair is
// the best feasible incumbent found (an upper bound, not the optimum).
type SurveyResult struct {
	K     int
	EE    int   // exact min edge boundary over k-sets (NotComputed if skipped)
	EESet []int // a minimizing set for EE
	NE    int   // exact min neighbor count over k-sets (NotComputed if skipped)
	NESet []int // a minimizing set for NE

	EEExact bool // EE certified optimal (always true when uncancelled)
	NEExact bool // NE certified optimal
	// EEExplored/NEExplored and EEPruned/NEPruned count the
	// branch-and-bound nodes the corresponding search explored and the
	// subtrees its bound cut off (telemetry for tables and manifests).
	EEExplored int64
	NEExplored int64
	EEPruned   int64
	NEPruned   int64
}

// SurveyOptions tune ExpansionSurveyWithOptions.
type SurveyOptions struct {
	// EdgeOnly/NodeOnly restrict the survey to one quantity; with neither
	// (or both) set, both EE and NE are computed.
	EdgeOnly bool
	NodeOnly bool
	// EdgeSeed/NodeSeed return an achievable upper bound on EE(g,k) /
	// NE(g,k) used to seed that k's incumbent — typically a §4 witness
	// boundary or a greedy set from package heuristic. nil functions or
	// negative returns leave the search unseeded.
	EdgeSeed func(k int) int
	NodeSeed func(k int) int

	// Ctx cancels the survey: searches not yet complete return their
	// incumbents with the *Exact flags false. nil means never cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives solve-wide Progress snapshots
	// every ProgressInterval (≤ 0: 1s).
	OnProgress       func(solve.Progress)
	ProgressInterval time.Duration
	// Label names the survey in progress lines and trace spans.
	Label string
	// Trace, when non-nil, receives the survey's span events.
	Trace *obs.Tracer
}

// ExpansionSurvey computes EE(g,k) and NE(g,k) exactly for every k in ks,
// batched: the BFS order is computed once, and one worker pool with
// per-worker scratch state drains the subproblems of all k jointly. root ≥ 0
// forces that node into every set (exact on vertex-transitive networks, an
// upper bound elsewhere); root < 0 searches unrestricted. workers ≤ 0 means
// solve.Workers.
func ExpansionSurvey(g *graph.Graph, ks []int, root, workers int) []SurveyResult {
	return ExpansionSurveyWithOptions(g, ks, root, workers, SurveyOptions{})
}

// ExpansionSurveyWithOptions is ExpansionSurvey with quantity selection,
// incumbent seeding, cancellation, and progress reporting.
func ExpansionSurveyWithOptions(g *graph.Graph, ks []int, root, workers int, opts SurveyOptions) []SurveyResult {
	if root >= g.N() {
		panic("exact: root out of range")
	}
	if root < 0 {
		root = -1
	}
	doEdge := !opts.NodeOnly || opts.EdgeOnly
	doNode := !opts.EdgeOnly || opts.NodeOnly

	mon := solve.Start(solve.Options{
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Interval:   opts.ProgressInterval,
		Name:       opts.Label,
		Trace:      opts.Trace,
	})
	defer mon.Close()

	seedFor := func(f func(int) int, k int) int {
		if f == nil {
			return noBound
		}
		if b := f(k); b >= 0 {
			return b
		}
		return noBound
	}

	results := make([]SurveyResult, len(ks))
	order := expansionOrder(g, root)
	var searches []*expSearch
	// target[i] points each search back at its result slot.
	var target []*SurveyResult
	for i, k := range ks {
		checkSetSize(g, k)
		r := &results[i]
		r.K, r.EE, r.NE = k, NotComputed, NotComputed
		if k == 0 || k == g.N() {
			if doEdge {
				r.EE, r.EESet, r.EEExact = 0, prefixSet(k), true
			}
			if doNode {
				r.NE, r.NESet, r.NEExact = 0, prefixSet(k), true
			}
			continue
		}
		if doEdge {
			s := &expSearch{k: k, edge: edgeExpansion}
			s.sb.mon = mon
			s.sb.best.Store(initialExpBest(g, edgeExpansion, seedFor(opts.EdgeSeed, k)))
			searches = append(searches, s)
			target = append(target, r)
		}
		if doNode {
			s := &expSearch{k: k, edge: nodeExpansion}
			s.sb.mon = mon
			s.sb.best.Store(initialExpBest(g, nodeExpansion, seedFor(opts.NodeSeed, k)))
			searches = append(searches, s)
			target = append(target, r)
		}
	}
	if len(searches) > 0 {
		if g.N() < 16 {
			// Tiny instances: the fan-out costs more than the search.
			st := newExpState(g, order)
			st.mon = mon
			for _, s := range searches {
				if mon.Stopped() {
					s.sb.incomplete.Store(true)
					continue
				}
				st.sb = &s.sb
				st.restartTicks()
				dfsExpansion(st, 0, s.k, s.edge, root >= 0, &s.sb)
				st.flushTicks()
				if st.stopped {
					s.sb.incomplete.Store(true)
				}
			}
		} else {
			runExpansionSearches(g, order, searches, root >= 0, workers, mon)
		}
	}
	for i, s := range searches {
		set, val, exact := s.sb.set, int(s.sb.best.Load()), !s.sb.incomplete.Load()
		if set == nil {
			if exact {
				// The seed undercut the optimum (caller error, but stay
				// exact): redo this one search unseeded.
				set, val, exact = minExpansionParallel(g, s.k, root, workers, s.edge, noBound, mon)
			} else {
				// Cancelled before any set was recorded: feasible
				// BFS-prefix fallback.
				set, val = fallbackExpansionSet(g, order, s.k, s.edge)
			}
		}
		explored, pruned := s.sb.explored.Load(), s.sb.pruned.Load()
		if s.edge {
			target[i].EE, target[i].EESet = val, set
			target[i].EEExact, target[i].EEExplored = exact, explored
			target[i].EEPruned = pruned
		} else {
			target[i].NE, target[i].NESet = val, set
			target[i].NEExact, target[i].NEExplored = exact, explored
			target[i].NEPruned = pruned
		}
	}
	return results
}
