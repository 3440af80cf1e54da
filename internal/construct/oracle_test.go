package construct

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// oracleScan is the exhaustive planner: every class-count pair (a,b) of
// the grid in order, keeping the first strict minimum.
func oracleScan(g planGrid) (groups, bestA, bestB int, ok bool) {
	j, compSize, half, regionA := g.j, g.compSize, g.half, g.regionA
	best := -1
	for a := 0; a <= j; a++ {
		for b := 0; b <= j; b++ {
			bothA := a * b
			bothBar := (j - a) * (j - b)
			mixed := j*j - bothA - bothBar
			targetM := half - (a+b)*regionA
			if targetM < 0 || targetM > j*j*compSize {
				continue
			}
			low := bothA * compSize
			high := low + mixed*compSize
			groups := mixed
			switch {
			case targetM < low:
				flips := ceilDiv(low-targetM, compSize)
				if flips > bothA {
					continue
				}
				groups += 2 * flips
			case targetM > high:
				flips := ceilDiv(targetM-high, compSize)
				if flips > bothBar {
					continue
				}
				groups += 2 * flips
			}
			if best < 0 || groups < best {
				best, bestA, bestB = groups, a, b
			}
		}
	}
	return best, bestA, bestB, best >= 0
}

// oracleQuotas is the list-based quota assignment: gather the both-A,
// both-Ā and mixed components, then fill them in that order.
func oracleQuotas(p *Plan) []compQuota {
	j := p.J
	compSize := p.CompSize()
	targetM := p.N*(p.Dim+1)/2 - (p.A+p.B)*(p.N*p.LogJ/p.J)
	quotas := make([]compQuota, j*j)
	type compRef struct{ pCls, sCls int }
	var bothA, bothBar, mixed []compRef
	for pc := 0; pc < j; pc++ {
		for sc := 0; sc < j; sc++ {
			ref := compRef{pc, sc}
			switch {
			case sc < p.A && pc < p.B:
				bothA = append(bothA, ref)
			case sc >= p.A && pc >= p.B:
				bothBar = append(bothBar, ref)
			default:
				mixed = append(mixed, ref)
			}
		}
	}
	idx := func(r compRef) int { return r.pCls*j + r.sCls }
	for _, r := range bothA {
		quotas[idx(r)] = compQuota{KA: compSize, TopInA: true}
	}
	rem := targetM - len(bothA)*compSize
	if rem >= 0 {
		for _, r := range mixed {
			take := min(rem, compSize)
			quotas[idx(r)] = compQuota{KA: take, TopInA: r.sCls < p.A}
			rem -= take
		}
		for _, r := range bothBar {
			if rem == 0 {
				break
			}
			take := min(rem, compSize)
			quotas[idx(r)] = compQuota{KA: take, TopInA: true}
			rem -= take
		}
	} else {
		deficit := -rem
		for _, r := range mixed {
			quotas[idx(r)] = compQuota{KA: 0, TopInA: r.sCls < p.A}
		}
		for _, r := range bothA {
			if deficit == 0 {
				break
			}
			take := min(deficit, compSize)
			quotas[idx(r)] = compQuota{KA: compSize - take, TopInA: true}
			deficit -= take
		}
	}
	return quotas
}

// TestPlannerMatchesExhaustiveScan checks the O(j) class-count optimum
// against the exhaustive scan on every grid BestPlan considers, and
// BestPlan itself — j, a, b, groups, capacity and every quota — against
// the scan's cheapest grid, for every log n from 2 to 32.
func TestPlannerMatchesExhaustiveScan(t *testing.T) {
	for d := 2; d <= 32; d++ {
		n := 1 << d
		var want struct{ groups, j, a, b, capacity int }
		want.capacity = -1
		for j := 2; j*j <= n && j <= maxPlanJ; j *= 2 {
			g, ok := newPlanGrid(n, j)
			if !ok {
				t.Fatalf("n=2^%d j=%d: grid rejected", d, j)
			}
			groups, a, b, ok := g.best()
			og, oa, ob, ook := oracleScan(g)
			if groups != og || a != oa || b != ob || ok != ook {
				t.Fatalf("n=2^%d j=%d: best() = (%d, a=%d, b=%d, %v), scan = (%d, a=%d, b=%d, %v)",
					d, j, groups, a, b, ok, og, oa, ob, ook)
			}
			if capacity := og * 2 * (n / (j * j)); ook && (want.capacity < 0 || capacity < want.capacity) {
				want.groups, want.j, want.a, want.b, want.capacity = og, j, oa, ob, capacity
			}
		}
		p, err := BestPlan(n)
		if err != nil {
			t.Fatalf("BestPlan(2^%d): %v", d, err)
		}
		if p.J != want.j || p.A != want.a || p.B != want.b || p.Groups != want.groups || p.Capacity != want.capacity {
			t.Fatalf("BestPlan(2^%d) = j=%d a=%d b=%d groups=%d capacity=%d, scan wants j=%d a=%d b=%d groups=%d capacity=%d",
				d, p.J, p.A, p.B, p.Groups, p.Capacity, want.j, want.a, want.b, want.groups, want.capacity)
		}
		if got := oracleQuotas(p); !reflect.DeepEqual(p.quotas, got) {
			t.Fatalf("BestPlan(2^%d): quotas differ from the list-based assignment", d)
		}
	}
}

// TestClassOptimumMatchesScanOnRandomGrids drives best() through shapes
// real butterflies rarely reach — ties between class counts and optima
// just past the balance range — on random grid constants.
func TestClassOptimumMatchesScanOnRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		g := planGrid{j: 1 + rng.Intn(24), compSize: 1 + rng.Intn(40), regionA: 1 + rng.Intn(120)}
		g.half = rng.Intn(g.j*g.j*g.compSize + 2*g.j*g.regionA + 1)
		groups, a, b, ok := g.best()
		og, oa, ob, ook := oracleScan(g)
		if groups != og || a != oa || b != ob || ok != ook {
			t.Fatalf("%+v: best() = (%d, a=%d, b=%d, %v), scan = (%d, a=%d, b=%d, %v)",
				g, groups, a, b, ok, og, oa, ob, ook)
		}
	}
}

// TestQuotasMatchListAssignment covers every quota branch — fill mixed,
// flip both-Ā, drain both-A — by assigning quotas for every feasible
// (a,b), not only the optimal ones.
func TestQuotasMatchListAssignment(t *testing.T) {
	for d := 2; d <= 12; d++ {
		for j := 2; j*j <= 1<<d; j *= 2 {
			g, ok := newPlanGrid(1<<d, j)
			if !ok {
				t.Fatalf("n=2^%d j=%d: grid rejected", d, j)
			}
			for a := 0; a <= j; a++ {
				for b := 0; b <= j; b++ {
					groups, ok := g.groups(a, b)
					if !ok {
						continue
					}
					p := g.plan(groups, a, b)
					if got := oracleQuotas(p); !reflect.DeepEqual(p.quotas, got) {
						t.Fatalf("n=2^%d j=%d a=%d b=%d: quotas differ from the list-based assignment", d, j, a, b)
					}
				}
			}
		}
	}
}

func TestBuiltBisectionCapacityUnbalancedPlanErrors(t *testing.T) {
	// The materialized path certifies balance exactly as the virtual one
	// does: corrupt one component quota so |A| misses N/2 by one node.
	const n = 1 << 8
	p := mustBestPlan(t, n)
	b := topology.NewButterfly(n)
	if capacity, err := p.BuiltBisectionCapacity(b); err != nil || capacity != p.Capacity {
		t.Fatalf("balanced plan: capacity %d, err %v; want %d, nil", capacity, err, p.Capacity)
	}
	corrupted := false
	for i := range p.quotas {
		if p.quotas[i].KA > 0 {
			p.quotas[i].KA--
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no component quota to corrupt")
	}
	_, err := p.BuiltBisectionCapacity(b)
	if err == nil {
		t.Fatal("unbalanced plan accepted")
	}
	_, verr := p.VirtualBisectionCapacity(context.Background(), 0)
	if verr == nil || err.Error() != verr.Error() {
		t.Fatalf("materialized error %q, virtual error %v: want the same error", err, verr)
	}
	for _, want := range []string{"n=256", "|A|=", "N/2="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestBestPlanAllocatesOnlyTheWinner pins the planner's cost: one Plan and
// the winning grid's quota table per call, whatever the number of
// candidate grids.
func TestBestPlanAllocatesOnlyTheWinner(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BestPlan(1 << 24); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("BestPlan(2^24) made %.0f allocations, want 2 (plan + quotas)", allocs)
	}
}
