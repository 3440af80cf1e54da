package core

import (
	"context"
	"strings"
	"testing"
	"time"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestButterflyBisectionCancelledExactIsIncumbent(t *testing.T) {
	r, err := ButterflyBisection(8, BisectionBudget{ExactNodes: 32, Ctx: cancelledCtx()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact == Unknown {
		t.Fatal("cancelled solve returned no incumbent")
	}
	if r.ExactComplete {
		t.Error("cancelled solve marked complete")
	}
	// The incumbent is a valid bisection, so it stays an upper bound.
	if r.Exact < 8 {
		t.Errorf("incumbent %d below BW(B8)=8", r.Exact)
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	if !strings.Contains(out, "no") {
		t.Errorf("table does not flag the non-exact row:\n%s", out)
	}
}

func TestButterflyBisectionCancelledVirtualFallsBack(t *testing.T) {
	// Beyond the solver budgets with a dead context, the report
	// quotes the plan's analytic capacity rather than erroring: -timeout
	// runs must exit cleanly.
	start := time.Now()
	r, err := ButterflyBisection(1<<15, BisectionBudget{Ctx: cancelledCtx()})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled virtual report took %v", took)
	}
	live, err := ButterflyBisection(1<<15, BisectionBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Constructed != live.Constructed {
		t.Errorf("fallback capacity %d differs from verified %d", r.Constructed, live.Constructed)
	}
}

func TestExpansionTableCancelledFlagsRows(t *testing.T) {
	rows := ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{
		ExactNodes: 64, Ctx: cancelledCtx(),
	})
	r := rows[0]
	if r.Exact == Unknown {
		t.Fatal("cancelled survey returned no incumbent")
	}
	if r.ExactComplete {
		t.Error("cancelled survey row marked exact")
	}
	out := RenderExpansionTable(rows)
	if !strings.Contains(out, "exact?") || !strings.Contains(out, "explored") {
		t.Errorf("table missing telemetry columns:\n%s", out)
	}
}

func TestExpansionTableUncancelledMarksComplete(t *testing.T) {
	rows := ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{ExactNodes: 64})
	r := rows[0]
	if !r.ExactComplete {
		t.Error("completed survey row not marked exact")
	}
	if r.Explored == 0 {
		t.Error("completed survey row has no explored count")
	}
}

func TestRoutingExperimentCancelled(t *testing.T) {
	r := RandomRoutingExperiment(8, 3, RoutingOptions{Trials: 10, Ctx: cancelledCtx()})
	if !r.Stats.Cancelled {
		t.Fatal("cancelled run not marked")
	}
	if r.Trials != 0 || r.Stats.Requested != 10 {
		t.Fatalf("trials %d/%d, want 0/10", r.Trials, r.Stats.Requested)
	}
	out := RenderRoutingTable("t", []RoutingReport{r})
	if !strings.Contains(out, "0 of 10") {
		t.Errorf("table does not show completed-of-requested:\n%s", out)
	}
}

func TestRenderBisectionTableTelemetryColumns(t *testing.T) {
	r := WrappedBisection(8, BisectionBudget{})
	if !r.ExactComplete || r.Explored == 0 {
		t.Fatalf("W8 solve telemetry: complete=%v explored=%d", r.ExactComplete, r.Explored)
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	for _, want := range []string{"exact?", "explored", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// Guard against the dash cells leaking into rows that skipped the exact
// pass entirely.
func TestRenderBisectionTableSkippedExact(t *testing.T) {
	r := WrappedBisection(64, BisectionBudget{ExactNodes: 16})
	if r.Exact != Unknown {
		t.Fatal("exact should be skipped at this size")
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	if !strings.Contains(out, "-") {
		t.Errorf("skipped exact row missing dashes:\n%s", out)
	}
}
