package solve

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	if m.Stopped() {
		t.Fatal("nil monitor reports stopped")
	}
	if m.Tick(100, 5) {
		t.Fatal("nil monitor Tick reports stop")
	}
	m.SetIncumbent(3)
	m.Stop()
	m.Close()
	if got := m.Snapshot(); got != (Progress{}) {
		t.Fatalf("nil monitor snapshot = %+v, want zero", got)
	}
	if m.Explored() != 0 || m.Pruned() != 0 || m.Elapsed() != 0 {
		t.Fatal("nil monitor counters non-zero")
	}
}

func TestExpiredContextStopsSynchronously(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Start(Options{Ctx: ctx})
	defer m.Close()
	if !m.Stopped() {
		t.Fatal("monitor on pre-cancelled context not stopped at Start")
	}
}

func TestDeadlineZeroStopsSynchronously(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	m := Start(Options{Ctx: ctx})
	defer m.Close()
	if !m.Stopped() {
		t.Fatal("monitor with zero deadline not stopped at Start")
	}
}

func TestCancelRaisesStopFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := Start(Options{Ctx: ctx})
	defer m.Close()
	if m.Stopped() {
		t.Fatal("stopped before cancel")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !m.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("stop flag not raised within 2s of cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTickAccumulatesAndSnapshot(t *testing.T) {
	m := Start(Options{})
	defer m.Close()
	if m.Tick(1000, 30) {
		t.Fatal("uncancelled Tick reports stop")
	}
	m.Tick(24, 2)
	m.SetIncumbent(17)
	p := m.Snapshot()
	if p.Explored != 1024 || p.Pruned != 32 {
		t.Fatalf("counters = %d/%d, want 1024/32", p.Explored, p.Pruned)
	}
	if !p.HasIncumbent || p.Incumbent != 17 {
		t.Fatalf("incumbent = %+v, want 17", p)
	}
	if p.Cancelled {
		t.Fatal("uncancelled snapshot marked cancelled")
	}
	if m.Explored() != 1024 || m.Pruned() != 32 {
		t.Fatal("accessor totals disagree with snapshot")
	}
}

func TestStopMethod(t *testing.T) {
	m := Start(Options{})
	defer m.Close()
	m.Stop()
	if !m.Stopped() {
		t.Fatal("Stop did not raise flag")
	}
	if !m.Tick(1, 0) {
		t.Fatal("Tick after Stop did not report stop")
	}
}

func TestOnProgressFires(t *testing.T) {
	var calls atomic.Int64
	m := Start(Options{
		OnProgress: func(Progress) { calls.Add(1) },
		Interval:   5 * time.Millisecond,
	})
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("OnProgress not called twice within 2s")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	after := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != after {
		t.Fatal("OnProgress still firing after Close")
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{Explored: 10, Pruned: 3}
	if s := p.String(); !strings.Contains(s, "explored=10") || !strings.Contains(s, "incumbent=?") {
		t.Fatalf("no-incumbent string = %q", s)
	}
	p = Progress{Explored: 10, Pruned: 3, Incumbent: 7, HasIncumbent: true}
	if s := p.String(); !strings.Contains(s, "incumbent=7") {
		t.Fatalf("incumbent string = %q", s)
	}
}

func TestCloseIdempotent(t *testing.T) {
	m := Start(Options{Ctx: context.Background()})
	m.Close()
	m.Close()
}

func TestWorkersIgnoresASpareP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d, want the request", got)
	}
	pool := Workers(0)
	if want := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); pool != want {
		t.Fatalf("Workers(0) = %d, want min(NumCPU, GOMAXPROCS) = %d", pool, want)
	}
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1)
	if got := Workers(0); got != pool {
		t.Fatalf("after raising GOMAXPROCS by one: Workers(0) = %d, want %d", got, pool)
	}
	runtime.GOMAXPROCS(1)
	if got := Workers(0); got != 1 {
		t.Fatalf("at GOMAXPROCS=1: Workers(0) = %d, want 1", got)
	}
}
