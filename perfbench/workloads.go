package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
)

// bench is one benchmark invocation's environment.
type bench struct {
	bin     string // butterflyd binary
	dir     string // scratch directory: stores and access logs
	seed    int64
	workers int   // client connections and threads (nproc)
	cpus    []int // the daemons' CPUs (nil: any)
	cl      *Client

	// next is where each generated stream resumes: the segments of a run
	// continue one sequence, so no cold key repeats within the run and
	// the run as a whole walks whole template cycles.
	next map[string]int
}

// resume returns the stream's sequence from where the last segment
// stopped; advance records how far this segment went.
func (b *bench) resume(name string, seq func(int) Request) func(int) Request {
	off := b.next[name]
	return func(i int) Request { return seq(off + i) }
}

func (b *bench) advance(name string, used int) { b.next[name] += used }

// stage is a set-up daemon group, ready for the timed phase.
type stage struct {
	daemons   []*daemon
	base      string   // the daemon the client drives
	logs      []string // access logs (traced runs), front daemon first
	storeDir  string
	pool      []Request
	setup     []record
	setupTime time.Duration
}

func (st *stage) stop() error {
	var first error
	for _, d := range st.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	st.daemons = nil
	return first
}

// peakRSSMB sums VmHWM over the stage's daemons.
func (st *stage) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range st.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// timed is one timed phase's records.
type timed struct {
	open    []record      // open loop: hit latencies
	closed  []record      // closed loop: class latencies and throughput
	window  time.Duration // closed-loop time
	rates   []float64     // answers per second of each closed-loop stint (phased workloads)
	backlog int           // open-loop requests due but unsent at window end
}

// workload is one named traffic mix.
type workload struct {
	name string
	// class is the X-Cache source whose closed-loop latency the class_*
	// metrics report: the outcome this workload exists to exercise.
	class string
	// sharedCPUs gives the daemons every CPU instead of one of their own
	// (see affinity.go).
	sharedCPUs bool
	setup      func(b *bench, traced bool) (*stage, error)
	run        func(b *bench, st *stage, dur time.Duration) (timed, error)
}

// Traffic shape. The phased workloads (hot-hits, store-churn,
// cluster-relay) measure their capacity in a closed loop and offer
// openFraction of it in an open loop (see phased), so the open loop runs
// at the same utilization whatever the program's speed: the daemon's CPU
// is busy about half the time. At a low fixed rate the daemon's and
// this process's vCPUs halt between requests and each request pays the
// hypervisor's wake-ups: at 200 rps (butterflybench's BENCH_pr9.json
// rate) hot-hit latency tracked host steal, 0.73 ms at 1.4% steal and
// 1.42 ms at 6%. solve-mix keeps that 200 rps beside its solves, whose
// preemption waits dwarf the wake-ups.
const (
	openFraction = 0.5
	openRate     = 200
	solvePool    = 8
	clusterSize  = 16
)

// stream is a named request sequence; runs resume it where the last
// segment stopped.
type stream struct {
	name string
	seq  func(int) Request
}

// stint is how long the phased workloads run each loop before switching
// to the other.
const stint = 500 * time.Millisecond

// phased alternates, for dur, a closed loop of one stream on every
// connection and an open loop of the other at openFraction of the rate
// the closed loop just reached, each for about a stint. Each open stint
// starts with an empty queue and is paced by a fresh capacity figure, so
// when the host takes CPU time away, the rate drops with it and a queue
// never outlives a stint: with one open loop for the second half of each
// segment, store-churn's hit p50 read 0.76ms and 5.3ms in the two of ten
// runs made at 14% and 18% steal, against ~0.13ms in the rest. One stream
// passed twice continues from each closed stint into the next open one.
func (b *bench) phased(st *stage, dur time.Duration, closed, open stream) (timed, error) {
	var t timed
	pairs := int(dur / (2 * stint))
	if pairs < 1 {
		pairs = 1
	}
	half := dur / time.Duration(2*pairs)
	for i := 0; i < pairs; i++ {
		recs, window := b.cl.ClosedLoop(st.base, b.allWorkers(), "closed", half, b.resume(closed.name, closed.seq))
		b.advance(closed.name, len(recs))
		ok := 0
		for _, r := range recs {
			if !r.failed() {
				ok++
			}
		}
		t.closed = append(t.closed, recs...)
		t.window += window
		rate := float64(ok) / window.Seconds()
		t.rates = append(t.rates, rate)
		if openFraction*rate < 1 {
			return t, fmt.Errorf("closed loop answered %d requests in %v; too few to set the open-loop rate", ok, window)
		}
		recs, backlog, err := b.cl.OpenLoop(st.base, b.allWorkers(), "open", openFraction*rate, half, b.resume(open.name, open.seq))
		b.advance(open.name, len(recs))
		t.open = append(t.open, recs...)
		t.backlog += backlog
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

var workloads = []workload{
	// Warmed LRU hits only: serve, net/http and obs do the work, so solver,
	// store and cluster changes must leave it unchanged.
	{
		name: "hot-hits", class: "hit",
		setup: setupHot,
		run:   runHot,
	},
	// Never-repeated construct, exact, heuristic and route solves on one
	// connection; fixed-rate hot hits on the other share the CPU with them.
	{
		name: "solve-mix", class: "miss", sharedCPUs: true,
		setup: setupSolveMix,
		run:   runSolveMix,
	},
	// Zipf reads over a store far larger than a small LRU, plus fresh keys
	// that solve and spill: store and codec reads beside writes.
	{
		name: "store-churn", class: "store-hit",
		setup: setupStoreChurn,
		run:   runStoreChurn,
	},
	// Coordinator plus one peer owning half the hot pool: the only workload
	// where cluster routing, transport and wire codec run. Runnable by
	// name; BENCHMARK.json leaves it out (see README, Known gaps).
	{
		name: "cluster-relay", class: "peer",
		setup: setupClusterRelay,
		run:   runClusterRelay,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (b *bench) allWorkers() []int {
	out := make([]int, b.workers)
	for i := range out {
		out[i] = i
	}
	return out
}

// start launches one daemon of the stage; traced daemons write an access
// log the reconciliation joins on.
func (b *bench) start(st *stage, traced bool, name string, args ...string) (*daemon, error) {
	if traced {
		log := filepath.Join(b.dir, name+".access.jsonl")
		_ = os.Remove(log)
		args = append(args, "-access-log", log)
		st.logs = append(st.logs, log)
	}
	d, err := b.launch(args...)
	if err != nil {
		return nil, err
	}
	st.daemons = append(st.daemons, d)
	return d, nil
}

// launch starts a daemon and waits until it answers /healthz, which it
// does only once its drain handler is installed (a SIGTERM earlier would
// kill it without the drain).
func (b *bench) launch(args ...string) (*daemon, error) {
	d, err := startDaemon(b.bin, b.cpus, args...)
	if err != nil {
		return nil, err
	}
	b.cl.closeIdle()
	defer b.cl.closeIdle()
	var buf bytes.Buffer
	for deadline := time.Now().Add(10 * time.Second); ; {
		status, _, err := b.cl.get(0, d.base, "/healthz", "", &buf)
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			_ = d.kill()
			return nil, fmt.Errorf("butterflyd never became healthy (status %d, %v):\n%s", status, err, d.log())
		}
		// A fine poll: a daemon starts in ~10ms, and setup_s would
		// otherwise carry the poll's rounding.
		time.Sleep(time.Millisecond)
	}
}

// warm solves each pool key once, then asks again so the set-up ends
// with every key answered from the LRU.
func (b *bench) warm(st *stage, pool []Request) {
	b.cl.closeIdle()
	st.setup = append(st.setup, b.cl.Split(st.base, b.allWorkers(), "warm", pool)...)
	st.setup = append(st.setup, b.cl.Split(st.base, b.allWorkers(), "rewarm", pool)...)
}

func setupHot(b *bench, traced bool) (*stage, error) {
	start := time.Now()
	st := &stage{pool: hotPool()}
	d, err := b.start(st, traced, "front")
	if err != nil {
		return st, err
	}
	st.base = d.base
	b.warm(st, st.pool)
	st.setupTime = time.Since(start)
	return st, nil
}

// runHot: a closed loop of hits on every connection, then an open loop
// of hits at openFraction of the closed loop's throughput.
func runHot(b *bench, st *stage, dur time.Duration) (timed, error) {
	return b.phased(st, dur, stream{"hot.closed", uniformSequence(st.pool, b.seed, "hot.closed")}, stream{"hot.open", uniformSequence(st.pool, b.seed, "hot.open")})
}

func setupSolveMix(b *bench, traced bool) (*stage, error) {
	start := time.Now()
	st := &stage{pool: shuffled(hotPool(), b.seed, "solve.pool")[:solvePool]}
	d, err := b.start(st, traced, "front")
	if err != nil {
		return st, err
	}
	st.base = d.base
	b.warm(st, st.pool)
	st.setupTime = time.Since(start)
	return st, nil
}

// runSolveMix: worker 0 streams never-repeated solves closed loop while
// the last worker sends hot hits at openRate; with one worker both
// share its connection.
func runSolveMix(b *bench, st *stage, dur time.Duration) (timed, error) {
	var t timed
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t.open, t.backlog, err = b.cl.OpenLoop(st.base, []int{b.workers - 1}, "open", openRate, dur, uniformSequence(st.pool, b.seed, "solve.hits"))
	}()
	t.closed, t.window = b.cl.ClosedLoop(st.base, []int{0}, "closed", dur, b.resume("cold", coldSequence(b.seed)))
	b.advance("cold", len(t.closed))
	wg.Wait()
	return t, err
}

func setupStoreChurn(b *bench, traced bool) (*stage, error) {
	start := time.Now()
	st := &stage{storeDir: filepath.Join(b.dir, "store")}
	if err := os.RemoveAll(st.storeDir); err != nil {
		return st, err
	}
	args := []string{"-store", st.storeDir, "-cache", fmt.Sprint(storeCache)}
	fill, err := b.launch(args...)
	if err != nil {
		return st, err
	}
	b.cl.closeIdle()
	st.setup = b.cl.Split(fill.base, b.allWorkers(), "fill", storeKeys(storeFill))
	// The drain flushes the LRU's survivors; evictions spilled already.
	if err := fill.stop(); err != nil {
		return st, err
	}
	b.cl.closeIdle()
	d, err := b.start(st, traced, "front", args...)
	if err != nil {
		return st, err
	}
	st.base = d.base
	st.setupTime = time.Since(start)
	return st, nil
}

// runStoreChurn: the zipf store stream closed loop on every connection,
// then open loop, one continuing stream (so no fresh key repeats).
func runStoreChurn(b *bench, st *stage, dur time.Duration) (timed, error) {
	s := stream{"store", storeSequence(b.seed)}
	return b.phased(st, dur, s, s)
}

func setupClusterRelay(b *bench, traced bool) (*stage, error) {
	start := time.Now()
	st := &stage{}
	coord, err := freeAddr()
	if err != nil {
		return st, err
	}
	peer, err := freeAddr()
	if err != nil {
		return st, err
	}
	peers := coord + "," + peer
	ring := cluster.NewRing([]string{coord, peer})
	owner := func(key string) bool {
		o, _ := ring.Owner(key, func(string) bool { return true })
		return o == peer
	}
	if st.pool, err = clusterPool(b.seed, owner, clusterSize); err != nil {
		return st, err
	}
	front, err := b.start(st, traced, "front", "-cluster-listen", coord, "-peers", peers, "-coordinator")
	if err != nil {
		return st, err
	}
	if _, err := b.start(st, traced, "peer", "-cluster-listen", peer, "-peers", peers); err != nil {
		return st, err
	}
	st.base = front.base
	b.warm(st, st.pool)
	st.setupTime = time.Since(start)
	return st, nil
}

// runClusterRelay: the pool closed loop on every connection, then open
// loop (local keys are LRU hits, peer-owned keys relay).
func runClusterRelay(b *bench, st *stage, dur time.Duration) (timed, error) {
	return b.phased(st, dur, stream{"cluster.closed", uniformSequence(st.pool, b.seed, "cluster.closed")}, stream{"cluster.open", uniformSequence(st.pool, b.seed, "cluster.open")})
}
