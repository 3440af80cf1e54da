// Command exptable regenerates the §4.3 summary tables (experiments E6 and
// E7): for each of the four expansion functions EE/NE on Wn/Bn, the
// measured boundary of the paper's witness constructions (upper bounds),
// the credit-scheme certified lower bounds evaluated on those witnesses,
// the exact optima where enumerable, and the k/log k theory columns.
//
// Exact optima come from the parallel witness-seeded branch-and-bound in
// internal/exact; -workers sizes its pool and -kmax widens the set sizes it
// is allowed to certify. -timeout bounds the run: searches still open at
// the deadline report their incumbent, flagged "no" in the exact? column.
// -progress streams explored/pruned/incumbent telemetry to stderr. -json
// writes the four tables as a machine-readable run manifest; -trace
// streams survey span events as JSONL.
//
// Usage:
//
//	exptable [-n 256] [-max-d 4] [-exact-nodes 32] [-kmax 8] [-workers 0]
//	         [-timeout 0] [-progress] [-pprof addr]
//	         [-json path] [-trace path] [-metrics]
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	n := flag.Int("n", 256, "butterfly inputs (power of two)")
	maxD := flag.Int("max-d", 4, "largest witness sub-butterfly dimension")
	exactNodes := flag.Int("exact-nodes", 32, "exact enumeration budget (node count)")
	kmax := flag.Int("kmax", 8, "largest set size certified by the exact engine")
	workers := flag.Int("workers", 0, "exact-engine worker goroutines (0 = CPU count)")
	long := cli.RegisterLongRun()
	out := cli.RegisterOutput()
	flag.Parse()

	cli.Validate(
		cli.PowerOfTwo("n", *n),
		cli.Positive("max-d", *maxD),
		cli.NonNegative("exact-nodes", *exactNodes),
		cli.Positive("kmax", *kmax),
		cli.NonNegative("workers", *workers),
	)

	ctx, cancel, onProgress := long.Start()
	defer cancel()
	out.Start("exptable")
	opts := core.ExpansionTableOptions{
		ExactNodes: *exactNodes,
		KMax:       *kmax,
		Workers:    *workers,
		Ctx:        ctx,
		OnProgress: onProgress,
		Trace:      out.Tracer(),
	}
	m := out.Manifest()
	for _, kind := range []core.ExpansionKind{core.WnEdge, core.WnNode, core.BnEdge, core.BnNode} {
		// Each kind's lemma construction has its own valid dimension range;
		// clamp so one sweep can cover all four tables.
		top := core.MaxWitnessDim(kind, *n)
		if top > *maxD {
			top = *maxD
		}
		var dims []int
		for d := 1; d <= top; d++ {
			dims = append(dims, d)
		}
		rows := core.ExpansionTable(kind, *n, dims, opts)
		fmt.Print(core.RenderExpansionTable(rows))
		fmt.Println()
		m.AddTable("expansion."+kind.Slug(), kind.String()+" (§4.3)", rows)
	}
	out.Finish(m)
}
