// Package construct builds the explicit cuts the paper's upper bounds rest
// on: the folklore column bisections of Bn and Wn, the dimension cut of
// CCCn, and — the headline — a bisection of Bn with capacity strictly below
// n, realizing the Theorem 2.20 upper bound BW(Bn) ≤ 2(√2−1)n + o(n).
//
// The sub-n bisection follows the paper's §2 construction, applied directly
// on Bn rather than through the B_{n²} detour of Lemma 2.16 (see DESIGN.md):
// columns are classified by their first log j bits (class p) and last log j
// bits (class s); the top log j levels go to side A when s < a, the bottom
// log j levels when p < b, and each middle component — a connected component
// of Bn[log j, log n − log j], compact by Lemma 2.9 — is placed according to
// its (s,p) type. Mixed components cost one edge group (2n/j² edges) on
// either side, and by the Lemma 2.15 frontier argument any prefix of a mixed
// component can sit in A at the same cost, which is how the cut is balanced
// into an exact bisection. Choosing the class counts (a,b) near √(1/2)·j
// makes the group count approach f(x,y)·j² = (√2−1)j², so the capacity
// approaches 2(√2−1)n as j and log n grow.
package construct

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/bitutil"
	"repro/internal/cut"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/topology"
)

// Registry metrics of the virtual plan evaluator: whole-plan counts only
// (the per-column loop is the hot path and stays untouched).
var (
	metricVirtualEvals     = obs.NewCounter("construct.virtual_evals")
	metricVirtualCancelled = obs.NewCounter("construct.virtual_evals_cancelled")
	metricVirtualColumns   = obs.NewCounter("construct.virtual_columns")
)

// ColumnBisection returns the folklore bisection of Bn or Wn: S is the set
// of nodes whose column number starts with 0. Its capacity is exactly n
// (the cross edges between levels 0 and 1), which is why BW ≤ n was the
// folklore belief for Bn and is the true value for Wn.
func ColumnBisection(b *topology.Butterfly) *cut.Cut {
	side := make([]bool, b.N())
	half := b.Inputs() / 2
	for v := 0; v < b.N(); v++ {
		side[v] = b.Column(v) < half
	}
	return cut.New(b.Graph, side)
}

// CCCDimensionCut returns the bisection of CCCn cutting cube dimension 1:
// S is the set of nodes whose cycle label starts with 0. Its capacity is
// n/2, matching BW(CCCn) = n/2 (Lemma 3.3).
func CCCDimensionCut(c *topology.CCC) *cut.Cut {
	side := make([]bool, c.N())
	half := c.Cycles() / 2
	for v := 0; v < c.N(); v++ {
		side[v] = c.CycleLabel(v) < half
	}
	return cut.New(c.Graph, side)
}

// compQuota records how one middle component is split: KA of its nodes go to
// side A, filled from its top level when TopInA and from its bottom level
// otherwise (the Lemma 2.15 frontier shape).
type compQuota struct {
	KA     int
	TopInA bool
}

// Plan is a fully determined sub-n bisection of Bn: the class counts (A,B),
// the per-component quotas, and the predicted capacity. Build materializes
// it; InA evaluates it virtually for networks too large to materialize.
type Plan struct {
	N    int `json:"n"`   // columns
	Dim  int `json:"dim"` // log n
	J    int `json:"j"`   // classes per side (power of two)
	LogJ int `json:"log_j"`
	// A and B are |X| and |Y|: side-A class counts for suffix and prefix
	// classes.
	A int `json:"a"`
	B int `json:"b"`

	Groups     int     `json:"groups"`      // capacity in units of edge groups
	GroupEdges int     `json:"group_edges"` // edges per group: 2n/j²
	Capacity   int     `json:"capacity"`    // Groups · GroupEdges
	Ratio      float64 `json:"ratio"`

	quotas []compQuota // indexed by comp id p*J + s
}

// CompSize returns the node count of one middle component:
// (n/j²)·(log n − 2 log j + 1).
func (p *Plan) CompSize() int {
	return p.cols() * (p.Dim - 2*p.LogJ + 1)
}

func (p *Plan) cols() int { return p.N / (p.J * p.J) }

// PlanButterflyBisection computes, for the given n and j, the cheapest plan
// over all class counts (a,b): base cost a(j−b)+(j−a)b groups for the mixed
// components plus 2 groups per both-type component that must be flipped
// (wholly or partially) to reach exact balance. Ties go to the smallest a,
// then the smallest b. It returns false when the parameters are
// structurally invalid (j² > n or 2·log j > log n).
func PlanButterflyBisection(n, j int) (*Plan, bool) {
	g, ok := newPlanGrid(n, j)
	if !ok {
		return nil, false
	}
	groups, a, b, ok := g.best()
	if !ok {
		return nil, false
	}
	return g.plan(groups, a, b), true
}

// planGrid holds the constants of one (n, j) class grid that the (a,b)
// optimizer needs.
type planGrid struct {
	n, d, j, lj int
	compSize    int // nodes per middle component
	half        int // N/2
	regionA     int // side-A nodes contributed per class chosen in the top (or bottom) region
}

func newPlanGrid(n, j int) (planGrid, bool) {
	if !bitutil.IsPow2(n) || !bitutil.IsPow2(j) || j < 2 {
		return planGrid{}, false
	}
	d := bitutil.Log2(n)
	if d > 48 { // n·(log n + 1) must stay well inside int64
		return planGrid{}, false
	}
	lj := bitutil.Log2(j)
	if j*j > n || 2*lj > d {
		return planGrid{}, false
	}
	return planGrid{
		n: n, d: d, j: j, lj: lj,
		compSize: n / (j * j) * (d - 2*lj + 1),
		half:     n * (d + 1) / 2,
		regionA:  n * lj / j,
	}, true
}

// groups returns the cost in edge groups of class counts (a,b), or false
// when the middle region cannot absorb the balance. A flip count never
// exceeds its pool of both-type components once the middle target lies in
// [0, j²·compSize], so that range is the whole feasibility test.
func (g planGrid) groups(a, b int) (int, bool) {
	j, c := g.j, g.compSize
	targetM := g.half - (a+b)*g.regionA
	if targetM < 0 || targetM > j*j*c {
		return 0, false
	}
	low := a * b * c                // every both-A component in A
	high := (j*j - (j-a)*(j-b)) * c // and every mixed one too
	mixed := a*(j-b) + (j-a)*b
	switch {
	case targetM < low:
		return mixed + 2*ceilDiv(low-targetM, c), true
	case targetM > high:
		return mixed + 2*ceilDiv(targetM-high, c), true
	}
	return mixed, true
}

// best returns the cheapest class counts in O(j): the same (a,b) as a scan
// of all (j+1)² pairs in order, keeping the first strict minimum.
//
// For fixed a the middle target T(b) = half − (a+b)·regionA falls with b,
// while the both-A fill low(b) and the mixed fill high(b) ≥ low(b) rise.
// So b runs through three ranges:
//   - T > high: the cost falls by at least j per step (two groups per flip,
//     the flips shrink by ≥ j−a, and mixed grows by j−2a);
//   - T in [low, high]: the cost is mixed, linear in b;
//   - T < low: the cost rises by at least j per step.
//
// The first minimizer is therefore an end point of one range clipped to the
// feasible b, and each end point is a closed form.
func (g planGrid) best() (groups, a, b int, ok bool) {
	j, c, r := g.j, g.compSize, g.regionA
	groups = -1
	for ca := 0; ca <= j; ca++ {
		base := g.half - ca*r                // T(b) = base − b·r
		lo := max(0, ceilDiv(base-j*j*c, r)) // first b with T ≤ j²·compSize
		hi := min(j, floorDiv(base, r))      // last b with T ≥ 0
		if lo > hi {
			continue
		}
		r2 := ceilDiv(base-ca*j*c, r+(j-ca)*c) // first b with T ≤ high
		r3 := floorDiv(base, ca*c+r) + 1       // first b with T < low
		bestG, bestB := -1, 0
		for _, cb := range [...]int{lo, r2 - 1, r2, r3 - 1, r3, hi} {
			cb = min(max(cb, lo), hi)
			gr, feasible := g.groups(ca, cb)
			if feasible && (bestG < 0 || gr < bestG || gr == bestG && cb < bestB) {
				bestG, bestB = gr, cb
			}
		}
		if bestG >= 0 && (groups < 0 || bestG < groups) {
			groups, a, b = bestG, ca, bestB
		}
	}
	return groups, a, b, groups >= 0
}

// plan returns the plan with class counts (a,b) at the given cost, with its
// per-component quotas assigned.
func (g planGrid) plan(groups, a, b int) *Plan {
	cols := g.n / (g.j * g.j)
	p := &Plan{
		N: g.n, Dim: g.d, J: g.j, LogJ: g.lj, A: a, B: b,
		Groups: groups, GroupEdges: 2 * cols, Capacity: groups * 2 * cols,
		Ratio: float64(groups*2*cols) / float64(g.n),
	}
	p.assignQuotas()
	return p
}

// assignQuotas distributes the side-A middle nodes over the components so
// that the plan is an exact bisection at the predicted capacity. Component
// (pc, sc), id pc·j + sc, is both-A when sc < A and pc < B, both-Ā when
// sc ≥ A and pc ≥ B, and mixed otherwise; each kind is visited in id order.
// The quota slice is the only allocation.
func (p *Plan) assignQuotas() {
	j := p.J
	compSize := p.CompSize()
	half := p.N * (p.Dim + 1) / 2
	regionA := p.N * p.LogJ / p.J
	targetM := half - (p.A+p.B)*regionA

	// Canonical placement: both-A components fully in A, then the mixed
	// components filled from their A-adjacent end while side A is short.
	p.quotas = make([]compQuota, j*j)
	rem := targetM - p.A*p.B*compSize
	for pc := 0; pc < j; pc++ {
		for sc := 0; sc < j; sc++ {
			q := &p.quotas[pc*j+sc]
			switch {
			case sc < p.A && pc < p.B:
				*q = compQuota{KA: compSize, TopInA: true}
			case sc >= p.A && pc >= p.B:
			default:
				q.TopInA = sc < p.A
				if rem > 0 {
					q.KA = min(rem, compSize)
					rem -= q.KA
				}
			}
		}
	}
	// Still short: flip both-Ā components into A. Too many side-A nodes
	// already: drain both-A components.
	for id := 0; id < j*j && rem != 0; id++ {
		pc, sc := id/j, id%j
		switch {
		case rem > 0 && sc >= p.A && pc >= p.B:
			take := min(rem, compSize)
			p.quotas[id] = compQuota{KA: take, TopInA: true}
			rem -= take
		case rem < 0 && sc < p.A && pc < p.B:
			take := min(-rem, compSize)
			p.quotas[id].KA = compSize - take
			rem += take
		}
	}
	if rem != 0 {
		panic(fmt.Sprintf("construct: plan balance infeasible (rem=%d); PlanButterflyBisection should have rejected it", rem))
	}
}

// InA reports whether node ⟨w,i⟩ of Bn belongs to side A of the plan.
func (p *Plan) InA(w, i int) bool {
	d, lj := p.Dim, p.LogJ
	switch {
	case i <= lj-1:
		return bitutil.Suffix(w, d, lj) < p.A
	case i >= d-lj+1:
		return bitutil.Prefix(w, d, lj) < p.B
	default:
		s := bitutil.Suffix(w, d, lj)
		pc := bitutil.Prefix(w, d, lj)
		q := p.quotas[pc*p.J+s]
		cols := p.cols()
		m := bitutil.Mid(w, d, lj+1, d-lj)
		pos := (i-lj)*cols + m
		if q.TopInA {
			return pos < q.KA
		}
		return pos >= p.CompSize()-q.KA
	}
}

// Build materializes the plan as a cut of the given Bn, which must match the
// plan's n.
func (p *Plan) Build(b *topology.Butterfly) *cut.Cut {
	if b.Wraparound() || b.Inputs() != p.N {
		panic("construct: butterfly does not match plan")
	}
	side := make([]bool, b.N())
	for v := 0; v < b.N(); v++ {
		side[v] = p.InA(b.Column(v), b.Level(v))
	}
	return cut.New(b.Graph, side)
}

// BuiltBisectionCapacity materializes the plan on b and certifies it is an
// exact bisection, returning the cut's capacity. An unbalanced plan yields
// the same error as VirtualBisectionCapacity.
func (p *Plan) BuiltBisectionCapacity(b *topology.Butterfly) (int, error) {
	c := p.Build(b)
	if err := p.checkBisection(c.SizeS()); err != nil {
		return 0, err
	}
	return c.Capacity(), nil
}

// checkBisection reports a construction bug: a side A of sizeA nodes that
// is not exactly half of Bn.
func (p *Plan) checkBisection(sizeA int) error {
	if nodes := p.N * (p.Dim + 1); sizeA != nodes/2 {
		return fmt.Errorf("construct: plan for n=%d is not a bisection: |A|=%d, want N/2=%d",
			p.N, sizeA, nodes/2)
	}
	return nil
}

// EvaluateVirtual measures the plan on a virtual Bn without materializing
// the graph: it streams over all 2n·log n edges and N nodes, returning the
// measured capacity and the size of side A. It lets the experiments verify
// sub-n bisections on butterflies with tens of millions of edges.
func (p *Plan) EvaluateVirtual() (capacity, sizeA int) {
	n, d := p.N, p.Dim
	for i := 0; i < d; i++ {
		for w := 0; w < n; w++ {
			a := p.InA(w, i)
			if a != p.InA(w, i+1) {
				capacity++
			}
			if a != p.InA(bitutil.FlipBit(w, d, i+1), i+1) {
				capacity++
			}
			if a {
				sizeA++
			}
		}
	}
	// The loop above counts side-A nodes on levels 0..d−1; add level d.
	for w := 0; w < n; w++ {
		if p.InA(w, d) {
			sizeA++
		}
	}
	return capacity, sizeA
}

// maxPlanJ caps the class-grid sweep: plans with log j anywhere near
// log n / 2 have no middle region to balance through, so they are never
// optimal, and a plan's quota table has j² entries.
const maxPlanJ = 4096

// EvaluateVirtualParallel is EvaluateVirtual with the edge stream
// partitioned into column ranges across worker goroutines — the evaluation
// is embarrassingly parallel because InA is a pure function of (w,i). It
// returns exactly the same counts.
func (p *Plan) EvaluateVirtualParallel(workers int) (capacity, sizeA int) {
	capacity, sizeA, _ = p.EvaluateVirtualParallelCtx(context.Background(), workers)
	return capacity, sizeA
}

// evalCheckStride is how many columns each evaluation worker processes
// between context polls: a column is log n InA pairs, so the poll cost is
// amortized to nothing while cancellation still lands within milliseconds
// even on multi-million-column plans.
const evalCheckStride = 2048

// EvaluateVirtualParallelCtx is EvaluateVirtualParallel with cooperative
// cancellation: workers poll ctx every evalCheckStride columns (word
// kernel: every block). On cancellation the partial counts are
// meaningless, so it returns zeros and a non-nil error wrapping ctx.Err().
//
// Plans with at least one full word of columns run the word-parallel
// kernel (see word.go): membership masks for 64 columns at a time,
// popcount edge accounting, cache-resident blocks fanned over workers.
// Smaller or degenerate plans keep the per-column scalar loop.
func (p *Plan) EvaluateVirtualParallelCtx(ctx context.Context, workers int) (capacity, sizeA int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = solve.Workers(workers)
	if p.wordEligible() {
		capacity, sizeA, err = p.evaluateWords(ctx, workers)
		metricVirtualEvals.Inc()
		if err != nil {
			metricVirtualCancelled.Inc()
			return 0, 0, err
		}
		metricVirtualColumns.Add(int64(p.N))
		return capacity, sizeA, nil
	}
	n, d := p.N, p.Dim
	if workers > n {
		workers = n
	}
	type partial struct{ capacity, sizeA int }
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		// Balanced ranges: ⌈n/workers⌉ vs ⌊n/workers⌋ columns per worker,
		// not n/workers with the whole remainder dumped on the last one.
		lo := n * wk / workers
		hi := n * (wk + 1) / workers
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			var cp, sz int
			untilPoll := evalCheckStride
			for w := lo; w < hi; w++ {
				untilPoll--
				if untilPoll <= 0 {
					if ctx.Err() != nil {
						return
					}
					untilPoll = evalCheckStride
				}
				for i := 0; i < d; i++ {
					a := p.InA(w, i)
					if a != p.InA(w, i+1) {
						cp++
					}
					if a != p.InA(bitutil.FlipBit(w, d, i+1), i+1) {
						cp++
					}
					if a {
						sz++
					}
				}
				if p.InA(w, d) {
					sz++
				}
			}
			parts[wk] = partial{cp, sz}
		}(wk, lo, hi)
	}
	wg.Wait()
	metricVirtualEvals.Inc()
	if cerr := ctx.Err(); cerr != nil {
		metricVirtualCancelled.Inc()
		return 0, 0, fmt.Errorf("construct: virtual evaluation of n=%d plan interrupted: %w", n, cerr)
	}
	metricVirtualColumns.Add(int64(n))
	for _, pt := range parts {
		capacity += pt.capacity
		sizeA += pt.sizeA
	}
	return capacity, sizeA, nil
}

// VirtualBisectionCapacity evaluates the plan virtually under ctx and
// certifies it is an exact bisection, returning the measured capacity. An
// unbalanced plan — a construction bug — yields an error naming the
// plan's n, the measured |A|, and the required N/2, instead of the panic
// this path used to take.
func (p *Plan) VirtualBisectionCapacity(ctx context.Context, workers int) (int, error) {
	capacity, sizeA, err := p.EvaluateVirtualParallelCtx(ctx, workers)
	if err != nil {
		return 0, err
	}
	if err := p.checkBisection(sizeA); err != nil {
		return 0, err
	}
	return capacity, nil
}

// BestPlan sweeps j over the valid powers of two and returns the cheapest
// plan for an n-column butterfly; ties go to the smaller j. Candidates are
// scored by their group count alone and only the winner's quotas are
// assigned. For small n it returns the folklore column cut expressed as a
// plan (j = 2); the capacity drops below n once log n is large enough for a
// finer class grid. When no class grid fits — n below 4, not a power of
// two, or beyond the log n ≤ 48 plan range — it returns an error instead
// of the panic this path used to take.
func BestPlan(n int) (*Plan, error) {
	var best planGrid
	bestCap, bestGroups, bestA, bestB := -1, 0, 0, 0
	for j := 2; j*j <= n && j <= maxPlanJ; j *= 2 {
		g, ok := newPlanGrid(n, j)
		if !ok {
			continue
		}
		groups, a, b, ok := g.best()
		if !ok {
			continue
		}
		if capacity := groups * 2 * (n / (j * j)); bestCap < 0 || capacity < bestCap {
			best, bestCap, bestGroups, bestA, bestB = g, capacity, groups, a, b
		}
	}
	if bestCap < 0 {
		return nil, fmt.Errorf("construct: no valid bisection plan for n=%d (need a power of two with 4 ≤ n ≤ 2^48)", n)
	}
	return best.plan(bestGroups, bestA, bestB), nil
}

// TheoreticalRatio is the Theorem 2.20 limit 2(√2−1) ≈ 0.828 that the plan
// ratios approach from above.
var TheoreticalRatio = 2 * (math.Sqrt2 - 1)

// Lemma216Ratio returns the capacity/n bound the paper's own Lemma 2.16
// route guarantees with class grid j: 2·BW(MOS_{j,j},M2)/j² + 4/j, where
// the M2-bisection capacity is supplied by the caller (package mos computes
// it; construct does not import mos to keep the dependency one-way).
func Lemma216Ratio(j, mosCapacity int) float64 {
	return 2*float64(mosCapacity)/float64(j*j) + 4/float64(j)
}

// Lemma216MinLogN returns the smallest log n at which Lemma 2.16's
// balancing precondition j³ + 2j − 1 ≤ log n holds — the reason the
// paper's route needs astronomically large butterflies before its bound
// beats the folklore n (j = 4 already demands log n ≥ 71), and the reason
// this reproduction balances the same cut directly on Bn instead (see
// DESIGN.md §2).
func Lemma216MinLogN(j int) int { return j*j*j + 2*j - 1 }

// floorDiv is ⌊a/b⌋ for b > 0 and a of either sign.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv is ⌈a/b⌉ for b > 0 and a of either sign.
func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
