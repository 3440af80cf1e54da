// Command perfbench is butterflyd's end-to-end benchmark. It starts fresh
// butterflyd processes, drives them from this one process on at most
// nproc connections, checks every answer, and prints one JSON result
// line. With -trace 1 it instead runs the workload untraced and traced
// (daemon access logs on), replays the workload's requests through the
// layers' Go entry points in process, and prints per-layer metrics plus
// the reconciliation tables.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// segments is how many times a measured run sets its workload up from
// scratch and measures it: each segment is a fresh daemon group, a
// set-up and 1/segments of the timed seconds. setup_s is the median
// set-up; the other figures are medians over the segments' spans.
const segments = 6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts requests and failures; the first few failures are kept
// for the report.
type tally struct {
	attempted, failed int
	examples          []string
}

func (t *tally) add(recs ...[]record) {
	for _, rs := range recs {
		for _, r := range rs {
			t.attempted++
			if !r.failed() {
				continue
			}
			t.failed++
			if len(t.examples) < 5 {
				switch {
				case r.Unsent:
					t.examples = append(t.examples, r.ID+": due but never sent")
				case r.Err != nil:
					t.examples = append(t.examples, r.ID+": "+r.Err.Error())
				}
			}
		}
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: hot-hits, solve-mix, store-churn or cluster-relay")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	bin := flag.String("daemon", "", "butterflyd binary")
	dir := flag.String("workdir", "", "scratch directory for stores and access logs (removed at exit)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*bin == "" || *dir == "") {
		err = fmt.Errorf("-daemon and -workdir are required")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Whatever ends the run, no daemon outlives it and its stores and
	// logs go with it.
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(*dir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	workers := runtime.NumCPU()
	cpus, err := place(w.sharedCPUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{bin: *bin, dir: *dir, seed: *seed, workers: workers, cpus: cpus, cl: newClient(workers, newChecker()), next: map[string]int{}}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = traceRun(b, w, dur)
	} else {
		res, err = measure(b, w, dur)
	}
	if err == nil && b.cl.conns.peak.Load() > int64(workers) {
		err = fmt.Errorf("client opened %d connections at once, budget %d", b.cl.conns.peak.Load(), workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp runs the workload's set-up on a fresh daemon group with a fresh
// checker (a new daemon renders new bodies).
func setUp(b *bench, w workload, traced bool, t *tally) (*stage, error) {
	b.cl.check = newChecker()
	st, err := w.setup(b, traced)
	if err != nil {
		if st != nil {
			_ = st.stop()
		}
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	t.add(st.setup)
	return st, nil
}

// measure is the untraced run: segments fresh set-ups, each followed by
// its share of the timed phase.
func measure(b *bench, w workload, dur time.Duration) (*result, error) {
	var t tally
	var setups, rss []float64
	var phases []timed
	for seg := 0; seg < segments; seg++ {
		st, err := setUp(b, w, false, &t)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.setupTime.Seconds())
		ph, err := w.run(b, st, dur/segments)
		mb, rerr := st.peakRSSMB()
		if err == nil {
			err = rerr
		}
		if serr := st.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		t.add(ph.open, ph.closed)
		phases = append(phases, ph)
		rss = append(rss, mb)
	}
	e2e, err := endToEnd(w, phases)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"peak_rss_mb":  {median(rss), "MB"},
		"hit_p50_us":   {e2e.hitP50, "us"},
		"class_p50_us": {e2e.classP50, "us"},
		"class_p95_us": {e2e.classP95, "us"},
		"closed_rps":   {e2e.rps, "1/s"},
	}
	report(w, &t, phases, e2e, m)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// e2e holds the end-to-end figures of a run's timed phases.
type e2e struct {
	hitP50, hitP95, classP50, classP95, rps float64
	hits, class                             int
}

// endToEnd computes the figures over the phases: open-loop hit latency
// and closed-loop latency of the workload's class as medians over spans,
// and closed-loop throughput as the median over the phased workloads'
// closed-loop stints (solve-mix, whose one closed loop completes a few
// hundred solves, counts them over the whole window). Tails are p95: it
// has ten samples beyond it in every workload, and on a shared 2-vCPU
// host the p99 of a one-second span moves tenfold with hypervisor steal.
func endToEnd(w workload, phases []timed) (e2e, error) {
	var e e2e
	var open, closed [][]record
	var rates []float64
	answers, window := 0, time.Duration(0)
	for _, ph := range phases {
		open = append(open, ph.open)
		closed = append(closed, ph.closed)
		rates = append(rates, ph.rates...)
		for _, r := range ph.closed {
			if !r.failed() {
				answers++
			}
		}
		window += ph.window
	}
	e.hitP50, e.hits = windowed(open, bySource("hit"), 0.5)
	e.hitP95, _ = windowed(open, bySource("hit"), 0.95)
	e.classP50, e.class = windowed(closed, bySource(w.class), 0.5)
	e.classP95, _ = windowed(closed, bySource(w.class), 0.95)
	e.rps = float64(answers) / window.Seconds()
	if len(rates) > 0 {
		e.rps = median(rates)
	}
	if e.hits == 0 || e.class == 0 {
		return e, fmt.Errorf("%s: %d open-loop hits and %d closed-loop %s answers; both must be measured", w.name, e.hits, e.class, w.class)
	}
	return e, nil
}

// aliases names the class metrics the way the workload's docs do:
// latency prefix and throughput name.
var aliases = map[string][2]string{
	"hit":       {"closed_hit", "hit_rps"},
	"miss":      {"solve", "solve_rps"},
	"store-hit": {"store", "store_read_rps"},
	"peer":      {"peer", "relay_rps"},
}

// report prints the human summary to stderr: every end-to-end figure by
// its per-class name, the error rate, sample counts and open-loop
// latency per outcome class.
func report(w workload, t *tally, phases []timed, e e2e, m map[string]metric) {
	a := aliases[w.class]
	fmt.Fprintf(os.Stderr, "perfbench %s: %d requests, error_rate %.6f\n", w.name, t.attempted, ratio(float64(t.failed), float64(t.attempted)))
	for _, ex := range t.examples {
		fmt.Fprintln(os.Stderr, "  failure:", ex)
	}
	fmt.Fprintf(os.Stderr, "  setup_s %.4f s, peak_rss_mb %.1f MB\n", m["setup_s"].Value, m["peak_rss_mb"].Value)
	fmt.Fprintf(os.Stderr, "  hit_p50_us %.1f us, hit_p95_us %.1f us (open loop, %d hits, timed from due)\n", e.hitP50, e.hitP95, e.hits)
	fmt.Fprintf(os.Stderr, "  %s_p50_us %.1f us, %s_p95_us %.1f us (closed loop, %d answers)\n", a[0], e.classP50, a[0], e.classP95, e.class)
	fmt.Fprintf(os.Stderr, "  %s %.1f 1/s (closed loop)\n", a[1], e.rps)
	bySrc := map[string][]float64{}
	var lags []float64
	backlog := 0
	for _, ph := range phases {
		backlog += ph.backlog
		for _, r := range ph.open {
			if !r.failed() {
				bySrc[r.Source] = append(bySrc[r.Source], us(r.latency()))
				lags = append(lags, us(r.lag()))
			}
		}
	}
	srcs := make([]string, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Fprintf(os.Stderr, "  open loop %-9s n=%-6d p50 %.1f us  p95 %.1f us  p99 %.1f us\n", s, len(bySrc[s]), quantile(bySrc[s], 0.5), quantile(bySrc[s], 0.95), quantile(bySrc[s], 0.99))
	}
	fmt.Fprintf(os.Stderr, "  generator lag p50 %.1f us, p99 %.1f us; backlog at window ends %d\n", quantile(lags, 0.5), quantile(lags, 0.99), backlog)
}

// finite replaces NaN (a layer the workload never reached) with 0 so the
// result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
