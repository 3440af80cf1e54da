package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manifestBody renders a minimal valid answer for req.
func manifestBody(t testing.TB, req Request, complete bool) []byte {
	t.Helper()
	body, err := json.MarshalIndent(map[string]interface{}{
		"schema":  "repro/run-manifest",
		"version": 1,
		"command": "butterflyd",
		"tables": []interface{}{map[string]interface{}{
			"name": "serve",
			"rows": []interface{}{map[string]interface{}{
				"endpoint": req.Endpoint, "key": req.Key(), "complete": complete, "deadline_ms": 10000,
			}},
		}},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// stubServer answers every /v1/ query with a valid body (X-Cache hit
// after the first answer per key), after calling hook with the request's
// sequence number.
func stubServer(t testing.TB, hook func(n int64)) *httptest.Server {
	var n atomic.Int64
	var mu sync.Mutex
	seen := map[string][]byte{}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			hook(n.Add(1))
		}
		req := Request{Endpoint: strings.TrimPrefix(r.URL.Path, "/v1/"), Query: r.URL.RawQuery}
		mu.Lock()
		body, ok := seen[req.Key()]
		if !ok {
			body = manifestBody(t, req, true)
			seen[req.Key()] = body
		}
		mu.Unlock()
		source := "miss"
		if ok {
			source = "hit"
		}
		w.Header().Set("X-Cache", source)
		_, _ = w.Write(body)
	}))
}

// A Client never holds more connections than it has workers, across
// set-up passes, both loops, scrapes and a second daemon.
func TestClientConnectionBudget(t *testing.T) {
	a, b := stubServer(t, nil), stubServer(t, nil)
	defer a.Close()
	defer b.Close()
	d := newClient(2, newChecker())
	defer d.closeIdle()
	workers := []int{0, 1}
	pool := hotPool()
	recs := d.Split(a.URL, workers, "warm", pool)
	open, _, err := d.OpenLoop(a.URL, workers, "open", 400, 500*time.Millisecond, uniformSequence(pool, 1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	closed, _ := d.ClosedLoop(a.URL, workers, "closed", 300*time.Millisecond, uniformSequence(pool, 1, "y"))
	d.closeIdle()
	recs = append(recs, d.Split(b.URL, workers, "other", pool)...)
	for _, r := range append(append(recs, open...), closed...) {
		if r.failed() {
			t.Fatalf("%s failed: %v", r.ID, r.Err)
		}
	}
	if p := d.conns.peak.Load(); p > 2 || p < 1 {
		t.Fatalf("peak open connections %d, want 1..2", p)
	}
}

// One stall delays every request due during it, and their latency —
// timed from the due time — shows it.
func TestStallRaisesLaterLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stubServer(t, func(n int64) {
		if n == 20 {
			time.Sleep(stall)
		}
	})
	defer srv.Close()
	d := newClient(1, newChecker())
	defer d.closeIdle()
	recs, _, err := d.OpenLoop(srv.URL, []int{0}, "open", 200, time.Second, uniformSequence(hotPool(), 1, "s"))
	if err != nil {
		t.Fatal(err)
	}
	// Requests 20..24 were due within 25ms of the stalled one (index 19)
	// and waited for it on the single connection.
	for i := 20; i < 25; i++ {
		if lat := recs[i].latency(); lat < stall-50*time.Millisecond {
			t.Errorf("request %d due during the stall has latency %s, want ≳ %s", i, lat, stall-50*time.Millisecond)
		}
		if lag := recs[i].lag(); lag < stall-50*time.Millisecond {
			t.Errorf("request %d sent %s late, want ≳ %s", i, lag, stall-50*time.Millisecond)
		}
	}
	if lat := recs[len(recs)-1].latency(); lat > 100*time.Millisecond {
		t.Errorf("the generator never caught up: last latency %s", lat)
	}
}

// A stall past the window and its grace leaves due requests unsent, and
// each counts as a failure.
func TestDueButUnsentFails(t *testing.T) {
	srv := stubServer(t, func(n int64) {
		if n == 5 {
			time.Sleep(time.Second)
		}
	})
	defer srv.Close()
	d := newClient(1, newChecker())
	d.grace = 100 * time.Millisecond
	defer d.closeIdle()
	recs, backlog, err := d.OpenLoop(srv.URL, []int{0}, "open", 100, 500*time.Millisecond, uniformSequence(hotPool(), 1, "u"))
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	tl.add(recs)
	unsent := 0
	for _, r := range recs {
		if r.Unsent {
			unsent++
		}
	}
	if unsent == 0 || tl.failed != unsent || tl.attempted != len(recs) {
		t.Fatalf("%d unsent, %d failed of %d attempted", unsent, tl.failed, tl.attempted)
	}
	if backlog < unsent {
		t.Fatalf("backlog %d below the %d unsent requests", backlog, unsent)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 %v, want 2", q)
	}
	if q := quantile([]float64{10, 20}, 0.99); q < 19.8 || q > 19.9 {
		t.Fatalf("q99 %v, want 19.9", q)
	}
}
