// expansion-survey reproduces the §4 expansion story end to end: a batched
// run of the parallel exact engine certifies EE(Wn,k) and NE(Wn,k) for a
// sweep of set sizes, seeded by the paper's witness sets where a lemma
// applies and by greedy sets everywhere else, then the witness upper bounds
// and credit-scheme lower bounds are laid against the exact optima, showing
// the 4:3:2:1/2 constant pattern of the §4.3 tables.
package main

import (
	"fmt"
	"time"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/expansion"
	"repro/internal/heuristic"
	"repro/internal/solve"
	"repro/internal/topology"
)

func main() {
	w := topology.NewWrappedButterfly(16) // 64 nodes: exact up to k=12
	ks := []int{2, 4, 6, 8, 10, 12}

	// Seed every k with the cheapest achievable bound available: the Lemma
	// 4.1 witness where k is a witness size, a greedy set otherwise. Wn is
	// vertex-transitive, so rooting the search at node 0 is exact and a
	// factor-N cheaper (Lemma 2.2/3.2 automorphisms).
	witnessUB := make(map[int]int)
	for d := 1; d <= w.Dim()-2; d++ {
		set := expansion.WnEdgeWitness(w, d)
		witnessUB[len(set)] = cut.EdgeBoundary(w.Graph, set)
	}
	edgeSeed := func(k int) int {
		if ub, ok := witnessUB[k]; ok {
			return ub
		}
		_, b := heuristic.GreedyEdgeExpansion(w.Graph, k, heuristic.ExpansionOptions{})
		return b
	}
	nodeSeed := func(k int) int {
		_, b := heuristic.GreedyNodeExpansion(w.Graph, k, heuristic.ExpansionOptions{})
		return b
	}

	start := time.Now()
	results := exact.ExpansionSurveyWithOptions(w.Graph, ks, 0, 0, exact.SurveyOptions{
		EdgeSeed: edgeSeed,
		NodeSeed: nodeSeed,
	})
	fmt.Printf("exact EE/NE(W16,k) for k=%v on %d workers in %v\n",
		ks, solve.Workers(0), time.Since(start).Round(time.Millisecond))

	fmt.Println("\nEE(Wn,k): the (4±o(1))k/log k band (Lemmas 4.1–4.2)")
	for _, r := range results {
		lb := expansion.WnEdgeCreditBound(w, r.EESet).LowerBound
		note := ""
		if ub, ok := witnessUB[r.K]; ok {
			note = fmt.Sprintf("  (witness UB %d seeded the search)", ub)
		}
		fmt.Printf("  k=%3d: credit LB %3d ≤ exact EE %3d%s\n", r.K, lb, r.EE, note)
	}

	fmt.Println("\nNE(Wn,k): exact optima from the same batched run")
	for _, r := range results {
		fmt.Printf("  k=%3d: exact NE %3d (|N(S)| of returned set: %d)\n",
			r.K, r.NE, len(cut.NodeBoundary(w.Graph, r.NESet)))
	}

	// At witness scale the lemma formulas are exact: B64's node witnesses.
	b := topology.NewButterfly(64)
	fmt.Println("\nNE(Bn,k): the (1/2..1)k/log k band (Lemmas 4.10–4.11)")
	for d := 1; d <= 4; d++ {
		set := expansion.BnNodeWitness(b, d)
		k := len(set)
		nb := len(cut.NodeBoundary(b.Graph, set))
		lb := expansion.BnNodeCreditBound(b, set).LowerBound
		fmt.Printf("  k=%3d: credit LB %3d ≤ |N(A)| = %3d (2^(d+1) = %d)\n",
			k, lb, nb, 1<<(d+1))
	}

	// The credit schemes certify bounds for arbitrary sets too — here the
	// first k nodes of level 0, a set the lemmas never saw.
	w64 := topology.NewWrappedButterfly(64)
	fmt.Println("\ncredit certificates on an ad-hoc set (half of level 0 of W64):")
	adhoc := w64.LevelNodes(0)[:32]
	r := expansion.WnEdgeCreditBound(w64, adhoc)
	fmt.Printf("  k=%d: certified C(A,Ā) ≥ %d; actual boundary %d\n",
		len(adhoc), r.LowerBound, cut.EdgeBoundary(w64.Graph, adhoc))
	fmt.Printf("  credit conservation: retained %.3f + leaked %.3f = k = %d\n",
		r.CutRetained, r.LeakedToLeaves, r.K)
}
