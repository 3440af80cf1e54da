package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/topology"
)

// perLayer lists the traced run's metrics in print order with units.
var perLayer = []struct{ name, unit string }{
	{"serve.hit_us", "us"}, {"serve.server_hit_us", "us"}, {"serve.outside_hit_us", "us"},
	{"serve.server_class_us", "us"}, {"serve.outside_class_us", "us"}, {"serve.hit_under_solve_us", "us"},
	{"serve.overhead_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.cache_spills", "count"},
	{"core.solve_ms", "ms"}, {"obs.render_us", "us"}, {"obs.render_bytes", "bytes"},
	{"construct.plan_ms", "ms"}, {"construct.build_ms", "ms"}, {"construct.virtual_ms", "ms"},
	{"exact.nodes_per_s", "1/s"}, {"exact.prune_ratio", "ratio"},
	{"heuristic.bisect_ms", "ms"}, {"route.trials_per_s", "1/s"}, {"graph.build_us", "us"},
	{"store.open_ms", "ms"}, {"store.get_us", "us"}, {"store.put_us", "us"},
	{"store.hit_ratio", "ratio"}, {"store.writes", "count"},
	{"codec.encode_us", "us"}, {"codec.decode_us", "us"},
	{"cluster.call_us", "us"}, {"cluster.route_us", "us"}, {"cluster.forward_error_ratio", "ratio"},
	{"runtime.gc_pauses", "count"}, {"runtime.heap_bytes", "bytes"},
	{"client.hit_p95_us", "us"}, {"client.lag_us", "us"}, {"client.backlog", "count"},
	{"trace.overhead_pct", "%"},
	{"recon.hit_remainder_us", "us"}, {"recon.solve_remainder_ms", "ms"},
}

// traceRun runs the workload untraced, then traced (access logs on,
// server counters scraped around the timed phase), then replays the
// traced run's requests through the layers in process. Each timed phase
// is one measured run's segment, dur/segments, so the traced figures
// compare with the untraced ones; the replay is bounded by the rest.
func traceRun(b *bench, w workload, dur time.Duration) (*result, error) {
	var t tally
	phase := dur / segments

	st, err := setUp(b, w, false, &t)
	if err != nil {
		return nil, err
	}
	plain, err := w.run(b, st, phase)
	if serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	t.add(plain.open, plain.closed)
	untraced, err := endToEnd(w, []timed{plain})
	if err != nil {
		return nil, err
	}

	st, err = setUp(b, w, true, &t)
	if err != nil {
		return nil, err
	}
	before, err := scrapeAll(b, st)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	ph, err := w.run(b, st, phase)
	var after metrics
	if err == nil {
		after, err = scrapeAll(b, st)
	}
	if serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	t.add(ph.open, ph.closed)
	traced, err := endToEnd(w, []timed{ph})
	if err != nil {
		return nil, err
	}
	log, err := readAccessLog(st.logs[0])
	if err != nil {
		return nil, err
	}

	all := append(append(append([]record(nil), st.setup...), ph.open...), ph.closed...)
	rp, err := replay(b, st, all, dur-2*phase)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	L := rp.layers

	hitServer, hitOutside := join(ph.open, log, bySource("hit"))
	classServer, classOutside := join(ph.closed, log, bySource(w.class))
	allHitServer, _ := join(append(append([]record(nil), ph.open...), ph.closed...), log, bySource("hit"))
	L["serve.server_hit_us"] = median(hitServer)
	L["serve.outside_hit_us"] = median(hitOutside)
	L["serve.server_class_us"] = median(classServer)
	L["serve.outside_class_us"] = median(classOutside)
	L["serve.hit_under_solve_us"] = quantile(allHitServer, 0.99)

	d := delta(before, after)
	L["serve.cache_hit_ratio"] = ratio(d["serve.cache_hits"], d["serve.cache_hits"]+d["serve.cache_misses"])
	L["serve.cache_spills"] = d["serve.cache_spills"]
	L["store.hit_ratio"] = ratio(d["store.hits"], d["store.hits"]+d["store.misses"])
	L["store.writes"] = d["store.writes"]
	L["cluster.forward_error_ratio"] = ratio(d["cluster.forward_errors"], d["cluster.forwarded"]+d["cluster.forward_errors"])
	L["runtime.gc_pauses"] = d["runtime.gc_pauses_total"]
	L["runtime.heap_bytes"] = d["runtime.heap_bytes"]

	var lags []float64
	for _, r := range ph.open {
		if !r.Unsent {
			lags = append(lags, us(r.lag()))
		}
	}
	L["client.hit_p95_us"] = untraced.hitP95
	L["client.lag_us"] = quantile(lags, 0.99)
	L["client.backlog"] = float64(ph.backlog)
	L["trace.overhead_pct"] = 100 * (traced.hitP50 - untraced.hitP50) / untraced.hitP50

	L["recon.hit_remainder_us"] = reconcileHits(traced.hitP50, L["serve.hit_us"], L["serve.server_hit_us"], L["serve.outside_hit_us"], median(lags))
	solveRem, overhead, coreMS := reconcileSolves(all, log, rp.coreMS, traced)
	L["recon.solve_remainder_ms"] = solveRem
	L["serve.overhead_ms"] = overhead
	L["core.solve_ms"] = coreMS

	fmt.Fprintf(os.Stderr, "perfbench %s traced: %d requests, %d failed; untraced hit_p50 %.1f us, traced %.1f us\n",
		w.name, t.attempted, t.failed, untraced.hitP50, traced.hitP50)
	for _, ex := range t.examples {
		fmt.Fprintln(os.Stderr, "  failure:", ex)
	}
	m := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		v := finite(L[p.name])
		m[p.name] = metric{v, p.unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.3f %s\n", p.name, v, p.unit)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// scrapeAll sums /debug/metrics over the stage's daemons.
func scrapeAll(b *bench, st *stage) (metrics, error) {
	sum := make(metrics)
	for _, d := range st.daemons {
		m, err := b.cl.scrape(d.base)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// join pairs successful records with their access-log lines by request
// ID, returning server latency and client-minus-server latency (µs).
func join(recs []record, log map[string]accessLine, keep func(record) bool) (server, outside []float64) {
	for _, r := range recs {
		if r.failed() || !keep(r) {
			continue
		}
		if l, ok := log[r.ID]; ok {
			server = append(server, float64(l.LatencyUS))
			outside = append(outside, us(r.latency())-float64(l.LatencyUS))
		}
	}
	return server, outside
}

// reconcileHits prints the hit-path split of the client p50 and returns
// the unexplained remainder (µs).
func reconcileHits(client, handler, server, outside, lag float64) float64 {
	rem := client - handler - (server - handler) - outside
	fmt.Fprintln(os.Stderr, "  reconciliation: client hit p50 (open loop, traced)")
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "client hit_p50_us", client)
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "serve.hit_us (handler, in process, no socket)", handler)
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "in-server outside the handler (log - handler)", server-handler)
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "serve.outside_us (client - log, per request)", outside)
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "  of which generator lag p50", lag)
	fmt.Fprintf(os.Stderr, "    %-44s %10.1f us\n", "unexplained remainder", rem)
	return rem
}

// reconcileSolves joins every locally solved request (client record,
// access-log line, in-process core time of the same key), prints the
// split of its client p50 and returns the remainder, serve overhead and
// core time (ms, medians over the joined requests).
func reconcileSolves(all []record, log map[string]accessLine, coreMS map[string]float64, traced e2e) (rem, overhead, core float64) {
	var client, cores, over, outside []float64
	for _, r := range all {
		l, ok := log[r.ID]
		c, replayed := coreMS[r.Req.Key()]
		if r.failed() || r.Source != "miss" || !ok || !replayed {
			continue
		}
		server := float64(l.LatencyUS) / 1000
		client = append(client, ms(r.latency()))
		cores = append(cores, c)
		over = append(over, server-c)
		outside = append(outside, ms(r.latency())-server)
	}
	C, K, V, O := median(client), median(cores), median(over), median(outside)
	rem = C - K - V - O
	fmt.Fprintf(os.Stderr, "  reconciliation: client solve p50 over %d solves joined to the replay\n", len(client))
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "client solve p50 (joined solves)", C)
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "  (class_p50 of the traced closed loop)", traced.classP50/1000)
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "core.solve_ms (entry point, in process)", K)
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "serve.overhead_ms (log - core, per request)", V)
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "outside the server (client - log)", O)
	fmt.Fprintf(os.Stderr, "    %-44s %10.3f ms\n", "unexplained remainder", rem)
	return rem, V, K
}

// replayOut is what the in-process replay measured.
type replayOut struct {
	layers map[string]float64
	coreMS map[string]float64 // per key: time of its core entry point
}

// replay times each layer's public Go entry points on the traced run's
// requests, from this process, with no daemon running: the core entry
// point of every solved key (in order, until half the budget is spent),
// manifest rendering, graph construction, the construction planner and
// virtual evaluation, FM bisection, routing trials, codec framing, the
// store, an in-process handler hit and a cluster relay.
func replay(b *bench, st *stage, all []record, budget time.Duration) (*replayOut, error) {
	if budget < 2*time.Second {
		budget = 2 * time.Second
	}
	out := &replayOut{layers: map[string]float64{}, coreMS: map[string]float64{}}
	L := out.layers
	sort.SliceStable(all, func(i, j int) bool { return all[i].Sent.Before(all[j].Sent) })
	var solveKeys, hitKeys []Request
	seen := map[string]bool{}
	hitSeen := map[string]bool{}
	for _, r := range all {
		if r.failed() {
			continue
		}
		k := r.Req.Key()
		if (r.Source == "miss" || r.Source == "peer") && !seen[k] {
			seen[k] = true
			solveKeys = append(solveKeys, r.Req)
		}
		if r.Source == "hit" && !hitSeen[k] {
			hitSeen[k] = true
			hitKeys = append(hitKeys, r.Req)
		}
	}

	// Core entry points, rendering, and the exact engine's counters.
	explored := obs.Default.Counter("solve.nodes_explored")
	pruned := obs.Default.Counter("solve.nodes_pruned")
	var exploredSum, prunedSum int64
	var exactTime time.Duration
	var renderUS, renderBytes []float64
	bodies := map[string][]byte{}
	var order []string
	// The server captures its environment once at start-up and copies it
	// into every manifest; so does the replay.
	env := obs.CaptureEnvironment()
	stopAt := time.Now().Add(budget / 2)
	for i, req := range solveKeys {
		if i > 0 && time.Now().After(stopAt) {
			break
		}
		e0, p0 := explored.Value(), pruned.Value()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		m, err := coreSolve(ctx, req)
		el := time.Since(start)
		cancel()
		if err != nil {
			return nil, err
		}
		out.coreMS[req.Key()] = ms(el)
		if de := explored.Value() - e0; de > 0 {
			exploredSum += de
			prunedSum += pruned.Value() - p0
			exactTime += el
		}
		start = time.Now()
		body, err := render(m, req, el, env)
		renderUS = append(renderUS, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		renderBytes = append(renderBytes, float64(len(body)))
		bodies[req.Key()] = body
		order = append(order, req.Key())
	}
	L["obs.render_us"] = median(renderUS)
	L["obs.render_bytes"] = median(renderBytes)
	L["exact.nodes_per_s"] = ratio(float64(exploredSum), exactTime.Seconds())
	L["exact.prune_ratio"] = ratio(float64(prunedSum), float64(exploredSum))

	if err := replayShapes(L, append(append([]Request(nil), solveKeys...), hitKeys...)); err != nil {
		return nil, err
	}
	if err := replayCodecStore(L, b, st, bodies, order); err != nil {
		return nil, err
	}
	if err := replayHits(L, hitKeys); err != nil {
		return nil, err
	}
	if err := replayCluster(L, hitKeys); err != nil {
		return nil, err
	}
	return out, nil
}

// coreSolve calls the core entry point a butterflyd handler calls for
// req, with the same options, and returns the manifest it would render.
func coreSolve(ctx context.Context, req Request) (*obs.Manifest, error) {
	q := parseQuery(req.Query)
	n := atoi(q["n"])
	m := obs.NewManifest("butterflyd")
	switch req.Endpoint {
	case "bisection":
		budget := core.BisectionBudget{ExactNodes: atoi(q["exact-nodes"]), Ctx: ctx}
		var rep core.BisectionReport
		var err error
		switch q["network"] {
		case "bn":
			rep, err = core.ButterflyBisection(n, budget)
		case "wn":
			rep = core.WrappedBisection(n, budget)
		case "ccc":
			rep = core.CCCBisection(n, budget)
		}
		if err != nil {
			return nil, err
		}
		m.AddTable("bisection."+q["network"], rep.TheoryLabel, []core.BisectionReport{rep})
	case "expansion":
		kind, err := core.ParseExpansionKind(q["kind"])
		if err != nil {
			return nil, err
		}
		var dims []int
		for _, d := range strings.Split(q["d"], ",") {
			dims = append(dims, atoi(d))
		}
		rows := core.ExpansionTable(kind, n, dims, core.ExpansionTableOptions{
			ExactNodes: atoi(q["exact-nodes"]), KMax: atoi(q["kmax"]), Ctx: ctx,
		})
		m.AddTable("expansion."+kind.Slug(), fmt.Sprintf("%s (§4.3)", kind), rows)
	case "routing":
		kind, sw, drops, err := routingParams(q)
		if err != nil {
			return nil, err
		}
		rows := core.RoutingDegradation(n, int64(atoi(q["seed"])), kind, drops, core.RoutingOptions{
			Trials: atoi(q["trials"]), Ctx: ctx, Switching: sw,
		})
		table := "routing." + kind.Slug()
		if len(drops) > 1 || drops[0] > 0 {
			table = "routing.faults"
		}
		m.AddTable(table, "E8", rows)
	default:
		return nil, fmt.Errorf("no core entry point for %s", req.Endpoint)
	}
	return m, nil
}

func routingParams(q map[string]string) (route.TrialKind, route.Switching, []float64, error) {
	kind, err := route.ParseTrialKind(q["kind"])
	if err != nil {
		return kind, 0, nil, err
	}
	sw, err := route.ParseSwitching(q["switching"])
	if err != nil {
		return kind, sw, nil, err
	}
	var drops []float64
	for _, p := range strings.Split(q["drop"], ",") {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return kind, sw, nil, err
		}
		drops = append(drops, v)
	}
	return kind, sw, drops, nil
}

// render is the handler's rendering step: the captured environment, the
// serve row and indented JSON.
func render(m *obs.Manifest, req Request, elapsed time.Duration, env obs.Environment) ([]byte, error) {
	m.ElapsedMS = ms(elapsed)
	m.Env = &env
	m.AddTable("serve", "butterflyd request record", []struct {
		Endpoint   string  `json:"endpoint"`
		Key        string  `json:"key"`
		Complete   bool    `json:"complete"`
		DeadlineMS float64 `json:"deadline_ms"`
	}{{req.Endpoint, req.Key(), true, 10000}})
	body, err := json.MarshalIndent(m, "", "  ")
	return append(body, '\n'), err
}

// shape is one network instance a request builds.
type shape struct {
	network string // bn | wn | ccc
	n       int
}

func (s shape) nodes() int {
	d := 0
	for x := s.n; x > 1; x >>= 1 {
		d++
	}
	if s.network == "bn" {
		return s.n * (d + 1)
	}
	return s.n * d
}

func (s shape) build() *topology.Butterfly {
	if s.network == "wn" {
		return topology.NewWrappedButterfly(s.n)
	}
	return topology.NewButterfly(s.n)
}

// materializeNodes is core's default BisectionBudget.MaterializeNodes:
// ButterflyBisection builds Bn and its planned cut up to this many nodes
// and evaluates the plan virtually beyond it.
const materializeNodes = 1 << 22

// replayShapes times graph construction, the planner, the planned cut on
// the path core takes for each shape (built on the graph up to
// materializeNodes, virtually evaluated beyond), FM bisection and routing
// trials on the requests' shapes.
func replayShapes(L map[string]float64, reqs []Request) error {
	bisect := map[shape]bool{}
	shapes := map[shape]bool{}
	var routes []Request
	for _, r := range reqs {
		q := parseQuery(r.Query)
		n := atoi(q["n"])
		switch r.Endpoint {
		case "bisection":
			s := shape{q["network"], n}
			shapes[s], bisect[s] = true, true
		case "expansion":
			shapes[shape{q["kind"][3:], n}] = true
		case "routing":
			shapes[shape{"bn", n}] = true
			routes = append(routes, r)
		}
	}
	var builds, plan, built, virtual, fm []float64
	for s := range shapes {
		var p *construct.Plan
		if s.network == "bn" && s.n >= 4 {
			start := time.Now()
			var err error
			if p, err = construct.BestPlan(s.n); err != nil {
				return err
			}
			plan = append(plan, ms(time.Since(start)))
		}
		if s.nodes() > materializeNodes {
			if p != nil && bisect[s] {
				start := time.Now()
				if _, err := p.VirtualBisectionCapacity(context.Background(), 0); err != nil {
					return err
				}
				virtual = append(virtual, ms(time.Since(start)))
			}
			continue
		}
		start := time.Now()
		var g *graph.Graph
		var b *topology.Butterfly
		if s.network == "ccc" {
			g = topology.NewCCC(s.n).Graph
		} else {
			b = s.build()
			g = b.Graph
		}
		builds = append(builds, us(time.Since(start)))
		if p != nil && bisect[s] {
			start = time.Now()
			_ = p.Build(b).Capacity()
			built = append(built, ms(time.Since(start)))
		}
		if bisect[s] && s.nodes() <= 16384 {
			start = time.Now()
			heuristic.BisectParallel(g, heuristic.BisectOptions{Starts: 6, Seed: 1})
			fm = append(fm, ms(time.Since(start)))
		}
	}
	trials := 0
	var routeTime time.Duration
	for _, r := range routes {
		q := parseQuery(r.Query)
		n := atoi(q["n"])
		kind, sw, drops, err := routingParams(q)
		if err != nil {
			return err
		}
		b := topology.NewButterfly(n)
		ref := construct.ColumnBisection(b)
		if p, err := construct.BestPlan(n); err == nil {
			ref = p.Build(b)
		}
		for _, drop := range drops {
			start := time.Now()
			stats := route.SimulateMany(b, ref, kind, route.ManyOptions{
				Trials: atoi(q["trials"]), Seed: int64(atoi(q["seed"])), TightFactor: 4,
				Fault: route.FaultOptions{DropProb: drop}, Switching: sw,
			})
			routeTime += time.Since(start)
			trials += stats.Trials
		}
	}
	L["graph.build_us"] = median(builds)
	L["construct.plan_ms"] = median(plan)
	L["construct.build_ms"] = median(built)
	L["construct.virtual_ms"] = median(virtual)
	L["heuristic.bisect_ms"] = median(fm)
	L["route.trials_per_s"] = ratio(float64(trials), routeTime.Seconds())
	return nil
}

// replayCodecStore frames every rendered body with the codec, puts the
// bodies into a scratch store, and times opening and reading a store:
// the daemon's own store where the workload has one, else the scratch.
func replayCodecStore(L map[string]float64, b *bench, st *stage, bodies map[string][]byte, order []string) error {
	var enc, dec, put, get, open []float64
	for _, k := range order {
		var buf bytes.Buffer
		w, err := codec.NewWriter(&buf)
		if err != nil {
			return err
		}
		rec := codec.Record{Kind: codec.KindManifest, Key: k, Payload: bodies[k]}
		start := time.Now()
		if _, err := w.Write(rec); err != nil {
			return err
		}
		enc = append(enc, us(time.Since(start)))
		start = time.Now()
		r, err := codec.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		got, err := r.Next()
		dec = append(dec, us(time.Since(start)))
		if err != nil || !bytes.Equal(got.Payload, rec.Payload) {
			return fmt.Errorf("codec round trip of %s: %v", k, err)
		}
	}
	scratch := filepath.Join(b.dir, "replay-store")
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	s, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	for _, k := range order {
		start := time.Now()
		if err := s.Put(k, bodies[k]); err != nil {
			return err
		}
		put = append(put, us(time.Since(start)))
	}
	if err := s.Close(); err != nil {
		return err
	}
	dir, keys := scratch, order
	if st.storeDir != "" {
		dir, keys = st.storeDir, nil
		for _, r := range storeKeys(storeFill) {
			keys = append(keys, r.Key())
		}
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err = store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		open = append(open, ms(time.Since(start)))
		if i < 2 {
			if err := s.Close(); err != nil {
				return err
			}
		}
	}
	for _, k := range keys {
		start := time.Now()
		_, ok, err := s.Get(k)
		el := time.Since(start)
		if err != nil {
			return err
		}
		if ok {
			get = append(get, us(el))
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	L["codec.encode_us"] = median(enc)
	L["codec.decode_us"] = median(dec)
	L["store.put_us"] = median(put)
	L["store.open_ms"] = median(open)
	L["store.get_us"] = median(get)
	return os.RemoveAll(scratch)
}

// hitRounds is how many times the in-process hit replay cycles over the
// hit keys.
const hitRounds = 200

// replayHits times Server.Handler().ServeHTTP on LRU hits, no socket.
func replayHits(L map[string]float64, keys []Request) error {
	// Room for every key, so the timed passes are all LRU hits.
	h := serve.New(serve.Config{CacheEntries: len(keys) + 1}).Handler()
	reqs := make([]*http.Request, len(keys))
	for i, k := range keys {
		reqs[i] = httptest.NewRequest(http.MethodGet, k.Path(), nil)
		h.ServeHTTP(httptest.NewRecorder(), reqs[i]) // solve once
	}
	var lat []float64
	for round := 0; round < hitRounds; round++ {
		for _, r := range reqs {
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, r)
			lat = append(lat, us(time.Since(start)))
			if rec.Header().Get("X-Cache") != "hit" {
				return fmt.Errorf("in-process replay of %s: X-Cache %q, want hit", r.URL.RequestURI(), rec.Header().Get("X-Cache"))
			}
		}
	}
	L["serve.hit_us"] = median(lat)
	return nil
}

// timedTransport times each TCPTransport.Call the router makes.
type timedTransport struct {
	inner *cluster.TCPTransport
	last  atomic.Int64 // ns of the latest call
}

func (t *timedTransport) Call(ctx context.Context, addr string, mt cluster.MsgType, body []byte) (cluster.MsgType, []byte, error) {
	start := time.Now()
	rt, rb, err := t.inner.Call(ctx, addr, mt, body)
	t.last.Store(int64(time.Since(start)))
	return rt, rb, err
}

// clusterRounds is how many relays of each peer-owned key are timed.
const clusterRounds = 20

// replayCluster relays the hit keys through a Router to an in-process
// peer serving the cluster protocol on loopback, timing Router.Route and
// the TCPTransport.Call inside it (warm peer cache: relay cost only).
func replayCluster(L map[string]float64, keys []Request) error {
	peer := serve.New(serve.Config{CacheEntries: len(keys) + 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tr := &cluster.TCPTransport{}
	node := cluster.NewNode(ln.Addr().String(), peer.Handler(), tr, 0)
	served := make(chan error, 1) // ServeTransport's single result
	go func() { served <- cluster.ServeTransport(ln, node.Handle) }()
	defer func() {
		_ = ln.Close()
		<-served
	}()

	// The coordinator's own address only names it on the ring; pick one
	// that leaves the peer owning some of the keys.
	var rt *cluster.Router
	tt := &timedTransport{inner: tr}
	var owned []Request
	for attempt := 0; attempt < 16 && len(owned) == 0; attempt++ {
		self := fmt.Sprintf("127.0.0.1:%d", 1+attempt)
		ring := cluster.NewRing([]string{self, ln.Addr().String()})
		owned = owned[:0]
		for _, k := range keys {
			if o, _ := ring.Owner(k.Key(), func(string) bool { return true }); o != self {
				owned = append(owned, k)
			}
		}
		rt = cluster.NewRouter(self, []string{self, ln.Addr().String()}, tt, 10*time.Second, 2)
	}
	if len(owned) == 0 {
		return fmt.Errorf("cluster replay: no key owned by the peer")
	}
	var call, routeUS []float64
	for round := 0; round <= clusterRounds; round++ {
		for _, k := range owned {
			r := httptest.NewRequest(http.MethodGet, k.Path(), nil)
			start := time.Now()
			resp, ok, err := rt.Route(r, k.Key())
			el := time.Since(start)
			if err != nil || !ok || resp.Status != http.StatusOK {
				return fmt.Errorf("cluster replay of %s: forwarded %v, err %v", k.Key(), ok, err)
			}
			if round == 0 {
				continue // the peer solved it: warm-up
			}
			routeUS = append(routeUS, us(el))
			call = append(call, float64(tt.last.Load())/1e3)
		}
	}
	L["cluster.route_us"] = median(routeUS)
	L["cluster.call_us"] = median(call)
	if math.IsNaN(L["cluster.route_us"]) {
		return fmt.Errorf("cluster replay measured nothing")
	}
	return nil
}
