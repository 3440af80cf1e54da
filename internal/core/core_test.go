package core

import (
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/topology"
)

func TestButterflyBisectionSmall(t *testing.T) {
	// B4: exact, heuristic, constructed and lower bound must nest
	// correctly: LB ≤ exact ≤ heuristic, exact ≤ constructed.
	r, err := ButterflyBisection(4, BisectionBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact == Unknown {
		t.Fatalf("exact should be computed for B4")
	}
	if !r.ExactComplete {
		t.Errorf("uncancelled exact solve not marked complete")
	}
	if r.LowerBound > r.Exact {
		t.Errorf("lower bound %d exceeds exact %d", r.LowerBound, r.Exact)
	}
	if r.Exact > r.Heuristic {
		t.Errorf("exact %d exceeds heuristic %d", r.Exact, r.Heuristic)
	}
	if r.Exact > r.Constructed {
		t.Errorf("exact %d exceeds constructed %d", r.Exact, r.Constructed)
	}
	if r.Constructed != 4 {
		t.Errorf("constructed %d, want folklore 4 at this size", r.Constructed)
	}
}

func TestButterflyBisectionExactB8(t *testing.T) {
	if testing.Short() {
		t.Skip("exact B8 takes a few seconds")
	}
	r, err := ButterflyBisection(8, BisectionBudget{ExactNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact != 8 {
		t.Errorf("BW(B8) = %d, want 8", r.Exact)
	}
	if !r.ExactComplete || r.Explored == 0 {
		t.Errorf("B8 solve telemetry: complete=%v explored=%d", r.ExactComplete, r.Explored)
	}
}

func TestButterflyBisectionVirtualLarge(t *testing.T) {
	// Beyond the solver budgets, the constructed capacity comes from the
	// virtual evaluator and beats folklore at large sizes.
	r, err := ButterflyBisection(1<<15, BisectionBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact != Unknown || r.Heuristic != Unknown {
		t.Errorf("exact/heuristic should be skipped at this size")
	}
	if r.Constructed >= 1<<15 {
		t.Errorf("constructed %d did not beat folklore", r.Constructed)
	}
}

func TestWrappedAndCCCBisection(t *testing.T) {
	w := WrappedBisection(8, BisectionBudget{})
	if w.Exact != 8 || w.Constructed != 8 {
		t.Errorf("W8: exact %d constructed %d, want 8/8", w.Exact, w.Constructed)
	}
	c := CCCBisection(8, BisectionBudget{})
	if c.Exact != 4 || c.Constructed != 4 {
		t.Errorf("CCC8: exact %d constructed %d, want 4/4", c.Exact, c.Constructed)
	}
}

func TestInputBisectionCheck(t *testing.T) {
	// Lemma 3.1: exactly n for B4.
	if got := InputBisectionCheck(4); got != 4 {
		t.Errorf("BW(B4, L0) = %d, want 4", got)
	}
}

func TestRenderBisectionTable(t *testing.T) {
	r := WrappedBisection(8, BisectionBudget{})
	out := RenderBisectionTable("test", []BisectionReport{r})
	for _, want := range []string{"W8", "exact", "theory"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSubFolkloreSweep(t *testing.T) {
	plans, err := SubFolkloreSweep([]int{6, 12, 15})
	if err != nil {
		t.Fatalf("SubFolkloreSweep: %v", err)
	}
	if len(plans) != 3 {
		t.Fatalf("got %d plans", len(plans))
	}
	if plans[0].Ratio != 1.0 {
		t.Errorf("small-n ratio %v, want folklore 1.0", plans[0].Ratio)
	}
	if plans[2].Ratio >= 1.0 {
		t.Errorf("large-n ratio %v should be sub-folklore", plans[2].Ratio)
	}
	out := RenderSubFolkloreTable(plans)
	if !strings.Contains(out, "0.8284") {
		t.Errorf("table missing the theory limit:\n%s", out)
	}
}

func TestMOSConvergenceReport(t *testing.T) {
	results := MOSConvergence([]int{2, 8, 64})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[2].Ratio >= results[0].Ratio {
		t.Errorf("ratio did not decrease: %v vs %v", results[2].Ratio, results[0].Ratio)
	}
	out := RenderMOSTable(results)
	if !strings.Contains(out, "0.4142") {
		t.Errorf("table missing √2−1:\n%s", out)
	}
}

func TestExpansionTables(t *testing.T) {
	for _, kind := range []ExpansionKind{WnEdge, WnNode, BnEdge, BnNode} {
		rows := ExpansionTable(kind, 64, []int{1, 2}, ExpansionTableOptions{})
		if len(rows) != 2 {
			t.Fatalf("%v: %d rows", kind, len(rows))
		}
		for _, r := range rows {
			if r.CreditLB > r.WitnessUB {
				t.Errorf("%v d=%d: credit LB %d exceeds witness UB %d",
					kind, r.D, r.CreditLB, r.WitnessUB)
			}
			if r.K != 0 && float64(r.WitnessUB) > 2*r.TheoryUB+4 {
				t.Errorf("%v d=%d: witness UB %d far above theory %g",
					kind, r.D, r.WitnessUB, r.TheoryUB)
			}
		}
		out := RenderExpansionTable(rows)
		if !strings.Contains(out, kind.String()) {
			t.Errorf("table missing kind name:\n%s", out)
		}
	}
}

func TestMaxWitnessDim(t *testing.T) {
	// At the returned dimension the witness constructors succeed; one above
	// they refuse (the lemmas need room around the sub-butterfly).
	for _, kind := range []ExpansionKind{WnEdge, WnNode, BnEdge, BnNode} {
		for _, n := range []int{16, 64} {
			top := MaxWitnessDim(kind, n)
			if top < 1 {
				t.Fatalf("%v n=%d: no valid witness dimension", kind, n)
			}
			if rows := ExpansionTable(kind, n, []int{top}, ExpansionTableOptions{}); len(rows) != 1 {
				t.Fatalf("%v n=%d d=%d: %d rows", kind, n, top, len(rows))
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v n=%d d=%d: expected out-of-range panic", kind, n, top+1)
					}
				}()
				ExpansionTable(kind, n, []int{top + 1}, ExpansionTableOptions{})
			}()
		}
	}
}

func TestExpansionTableExact(t *testing.T) {
	// With a budget, exact optima appear and sit between the bounds.
	rows := ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{ExactNodes: 64})
	r := rows[0]
	if r.Exact == Unknown {
		t.Fatalf("exact not computed")
	}
	if r.CreditLB > r.Exact || r.Exact > r.WitnessUB {
		t.Errorf("bounds do not bracket the optimum: %d ≤ %d ≤ %d",
			r.CreditLB, r.Exact, r.WitnessUB)
	}
}

func TestStructureReports(t *testing.T) {
	b8 := ButterflyStructure(8, false)
	if b8.Nodes != 32 || b8.NodesFormula != 32 {
		t.Errorf("B8 nodes %d/%d", b8.Nodes, b8.NodesFormula)
	}
	if b8.Diameter != b8.TheoryDiam {
		t.Errorf("B8 diameter %d vs theory %d", b8.Diameter, b8.TheoryDiam)
	}
	if !b8.MonotonePaths {
		t.Errorf("Lemma 2.3 verification failed")
	}
	w16 := ButterflyStructure(16, true)
	if w16.Diameter != w16.TheoryDiam {
		t.Errorf("W16 diameter %d vs theory %d", w16.Diameter, w16.TheoryDiam)
	}
	out := RenderStructureTable([]StructureReport{b8, w16})
	if !strings.Contains(out, "B8") || !strings.Contains(out, "W16") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestRenderButterflyDiagram(t *testing.T) {
	out := RenderButterflyDiagram(8)
	if !strings.Contains(out, "000") || !strings.Contains(out, "111") {
		t.Errorf("diagram missing column labels:\n%s", out)
	}
	if strings.Count(out, "lvl") != 4 {
		t.Errorf("diagram should have 4 level rows:\n%s", out)
	}
}

func TestBenesRearrangeability(t *testing.T) {
	routed, total := BenesRearrangeabilityCheck(16, 50, 1)
	if routed != total {
		t.Errorf("only %d of %d permutations routed edge-disjointly", routed, total)
	}
}

func TestRoutingExperiments(t *testing.T) {
	r := RandomRoutingExperiment(8, 3, RoutingOptions{Trials: 8, Workers: 2})
	if r.Trials != 8 {
		t.Errorf("ran %d trials, want 8", r.Trials)
	}
	if r.Stats.MinRatio < 1 {
		t.Errorf("a trial beat its certified bound: min steps/bound ratio %v", r.Stats.MinRatio)
	}
	if r.Stats.TotalPackets == 0 || r.CutCapacity == 0 {
		t.Errorf("degenerate run: %+v", r)
	}
	p := PermutationRoutingExperiment(8, 3, RoutingOptions{Trials: 4})
	if p.Stats.TotalPackets != 4*8 {
		t.Errorf("permutation trials routed %d packets, want %d", p.Stats.TotalPackets, 4*8)
	}
	if p.Stats.MinBound > 0 && p.Stats.MinRatio < 1 {
		t.Errorf("permutation trial beat its bound: %+v", p.Stats)
	}
	// Single-trial default matches the flat engine's single-trial run.
	single := RandomRoutingExperiment(8, 3, RoutingOptions{})
	if single.Trials != 1 {
		t.Errorf("zero options ran %d trials", single.Trials)
	}
	out := RenderRoutingTable("routing", []RoutingReport{r, p})
	if !strings.Contains(out, "crossings") || !strings.Contains(out, "steps/bound") {
		t.Errorf("table missing aggregate headers:\n%s", out)
	}
}

func TestButterflyBisectionConstructedMatchesBuiltPlan(t *testing.T) {
	// Whether the report measures the plan on a built Bn (solver sizes) or
	// evaluates it virtually (every larger size), the constructed row is
	// the capacity of the plan's materialized cut.
	for d := 2; d <= 17; d++ {
		n := 1 << d
		r, err := ButterflyBisection(n, BisectionBudget{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := construct.BestPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.Build(topology.NewButterfly(n)).Capacity(); r.Constructed != want {
			t.Errorf("B%d: constructed %d, built plan cut %d", n, r.Constructed, want)
		}
	}
}
