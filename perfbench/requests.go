package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Request is one API query in canonical form: Query spells every
// parameter the daemon's canonical key carries, in the daemon's order, so
// Key() is exactly the key butterflyd reports in its serve row (and hashes
// over the cluster ring).
type Request struct {
	Endpoint string // bisection | expansion | routing
	Query    string
}

// Key is the daemon's canonical request key: endpoint?query.
func (r Request) Key() string { return r.Endpoint + "?" + r.Query }

// Path is the URL path plus query the client sends.
func (r Request) Path() string { return "/v1/" + r.Key() }

func bisection(network string, n, exactNodes int) Request {
	return Request{"bisection", fmt.Sprintf("network=%s&n=%d&exact-nodes=%d", network, n, exactNodes)}
}

func expansion(kind string, n int, dims string, exactNodes, kmax int) Request {
	return Request{"expansion", fmt.Sprintf("kind=%s&n=%d&d=%s&exact-nodes=%d&kmax=%d", kind, n, dims, exactNodes, kmax)}
}

func routing(kind string, n, trials int, seed int64, drops string) Request {
	return Request{"routing", fmt.Sprintf("kind=%s&n=%d&trials=%d&seed=%d&drop=%s&dead=0&retransmits=0&switching=sf",
		kind, n, trials, seed, drops)}
}

// mix64 is the splitmix64 finalizer: every random choice the generators
// make is mix64 of (seed, stream, index), so a sequence is a pure
// function of (workload, seed) and nearby seeds share no streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0, n) for (seed, stream, i).
func draw(seed int64, stream string, i, n int) int {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return int(mix64(h^uint64(i)) % uint64(n))
}

// shuffled returns a seeded permutation of reqs (Fisher–Yates).
func shuffled(reqs []Request, seed int64, stream string) []Request {
	out := append([]Request(nil), reqs...)
	for i := len(out) - 1; i > 0; i-- {
		j := draw(seed, stream, i, i+1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// hotPool is the set of cheap keys the hit streams cycle over: small
// bisections (exact, heuristic and constructed rows) and small routing
// experiments, each a few milliseconds to solve once.
func hotPool() []Request {
	return []Request{
		bisection("bn", 4, 32), bisection("bn", 8, 32), bisection("bn", 16, 32), bisection("bn", 32, 32),
		bisection("wn", 4, 32), bisection("wn", 8, 32), bisection("ccc", 8, 32), bisection("ccc", 16, 32),
		routing("random", 8, 2, 1, "0"), routing("random", 16, 2, 1, "0"), routing("random", 32, 2, 1, "0"),
		routing("permutation", 8, 2, 1, "0"), routing("permutation", 16, 2, 1, "0"),
		routing("hotspot", 16, 2, 1, "0"), routing("bitreversal", 16, 2, 1, "0"),
		routing("random", 16, 2, 1, "0,0.05"),
	}
}

// family is one solver-heavy request family of the solve-mix cold
// stream. Its templates cycle in order; occ (the family's occurrence
// count) picks a never-repeated value of the one parameter that does not
// change the work (exact-nodes above the network size, or the routing
// seed), so every key is fresh while the cost of a cycle is fixed.
type family struct {
	name      string
	templates []func(occ int) Request
}

// spread maps an occurrence onto [lo, hi] without repeats for the first
// hi-lo+1 occurrences.
func spread(base, occ, lo, hi int) int { return lo + (base+occ)%(hi-lo+1) }

// coldFamilies returns the four solve-mix families for a seed. The seed
// rotates each family's cycle and offsets its fresh parameter; the
// templates themselves are fixed, so every seed pays the same work per
// cycle.
func coldFamilies(seed int64) []family {
	base := func(name string) int { return draw(seed, "base."+name, 0, 1<<20) }
	var construct, heuristic, exactF, route family
	// Each cycle alternates heavy and light templates, so any stretch of
	// a cycle costs about its share of the whole cycle.
	construct.name = "construct"
	for _, k := range []int{12, 22, 13, 21, 14, 20, 15, 19, 16, 18, 17} {
		n := 1 << k
		construct.templates = append(construct.templates, func(occ int) Request {
			// ≥ 53248 nodes: never exact, so exact-nodes only names the key.
			return bisection("bn", n, spread(base("construct"), occ, 0, 4096))
		})
	}
	heuristic.name = "heuristic"
	for _, n := range []int{64, 1024, 128, 512, 256} {
		n := n
		heuristic.templates = append(heuristic.templates, func(occ int) Request {
			// exact-nodes below B64's 448 nodes: heuristic and graph only.
			return bisection("bn", n, spread(base("heuristic"), occ, 0, 447))
		})
	}
	exactF.name = "exact"
	b := base("exact")
	exactF.templates = []func(int) Request{
		func(occ int) Request { return bisection("wn", 16, spread(b, occ, 64, 4096)) },
		func(occ int) Request { return bisection("wn", 8, spread(b, occ, 64, 4096)) },
		func(occ int) Request { return expansion("ne_wn", 16, "1", spread(b, occ, 64, 4096), 8) },
		func(occ int) Request { return bisection("ccc", 8, spread(b, occ, 64, 4096)) },
		func(occ int) Request { return bisection("ccc", 16, spread(b, occ, 64, 4096)) },
		func(occ int) Request { return expansion("ee_wn", 16, "1,2", spread(b, occ, 64, 4096), 8) },
		func(occ int) Request { return bisection("bn", 8, spread(b, occ, 64, 4096)) },
		func(occ int) Request { return expansion("ne_bn", 16, "1,2,3", spread(b, occ, 80, 4096), 8) },
		func(occ int) Request { return expansion("ee_bn", 16, "1,2,3", spread(b, occ, 80, 4096), 8) },
	}
	route.name = "route"
	rb := int64(base("route")) + 1000
	for i, n := range []int{64, 1024, 128, 512, 256, 256, 512, 128, 1024, 64} {
		n, drops := n, []string{"0", "0,0.05,0.1"}[i%2]
		route.templates = append(route.templates, func(occ int) Request {
			return routing("random", n, 4, rb+int64(occ), drops)
		})
	}
	return []family{construct, heuristic, exactF, route}
}

// coldSequence returns the solve-mix cold stream: rounds of one key per
// family, the family order shuffled per round, each family walking its
// own template cycle from a seeded rotation.
func coldSequence(seed int64) func(i int) Request {
	fams := coldFamilies(seed)
	rot := make([]int, len(fams))
	for f := range fams {
		rot[f] = draw(seed, "rot."+fams[f].name, 0, len(fams[f].templates))
	}
	return func(i int) Request {
		round, slot := i/len(fams), i%len(fams)
		order := []int{0, 1, 2, 3}
		for j := len(order) - 1; j > 0; j-- {
			k := draw(seed, "order", round*len(order)+j, j+1)
			order[j], order[k] = order[k], order[j]
		}
		f := order[slot]
		t := fams[f].templates
		return t[(rot[f]+round)%len(t)](round)
	}
}

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return zipf{cdf}
}

// rank maps a uniform u in [0, 1) to a rank.
func (z zipf) rank(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

func unit(seed int64, stream string, i int) float64 {
	return float64(draw(seed, stream, i, 1<<30)) / (1 << 30)
}

// storeKeys is the store-churn fill set: cheap routing and bisection
// keys, many more than the daemon's small LRU holds.
func storeKeys(n int) []Request {
	kinds := []string{"random", "permutation", "hotspot", "bitreversal"}
	out := make([]Request, 0, n)
	for i := 0; len(out) < n; i++ {
		if i%8 == 7 {
			// Bisections below the exact budget: heuristic + construct rows.
			out = append(out, bisection([]string{"bn", "wn", "ccc"}[i%3], []int{8, 16}[i/8%2], i/8%32))
			continue
		}
		out = append(out, routing(kinds[i%4], []int{8, 16}[i/4%2], 1+i%2, int64(i), "0"))
	}
	return out
}

// Store-churn shape. The zipf exponent is loadgen's zipf-shapes 1.2.
// The fresh share is the 8% of requests that were not LRU hits in the
// committed serving baseline (BENCH_pr9.json: 92% cache hits). The fill
// is twice the daemon's default -cache 256, so the store holds more keys
// than even a default LRU would. The LRU is the largest power of two
// under which store hits are a clear majority of the reads: simulating
// the stream's LRU gives about 34% LRU hits and 58% store hits at 8
// entries, but 46% hits and 46% store hits at 16.
const (
	storeFill      = 512
	storeCache     = 8
	storeFreshFrac = 0.08
	storeZipfS     = 1.2
)

// storeSequence returns the store-churn timed stream: zipf-ranked reads
// over a seeded permutation of the fill set, with a storeFreshFrac share
// of never-seen routing keys (seeds past every fill seed, one per index)
// that solve, enter the LRU and spill when evicted.
func storeSequence(seed int64) func(i int) Request {
	keys := shuffled(storeKeys(storeFill), seed, "store.perm")
	z := newZipf(len(keys), storeZipfS)
	return func(i int) Request {
		if unit(seed, "store.fresh", i) < storeFreshFrac {
			return routing("random", 8, 1, int64(1<<20+i), "0")
		}
		return keys[z.rank(unit(seed, "store.zipf", i))]
	}
}

// clusterPool picks the cluster-relay hot pool: size/4 exact bisections
// and size/4 routing experiments owned by each of the coordinator (LRU
// hits there) and the peer (relayed), so the mix does not depend on
// which ports the daemons got. Ownership is the only input besides the
// seed.
func clusterPool(seed int64, peerOwns func(key string) bool, size int) ([]Request, error) {
	var bis, rt []Request
	for _, r := range []struct {
		network string
		n       int
	}{{"bn", 4}, {"bn", 8}, {"wn", 4}, {"wn", 8}, {"ccc", 8}} {
		for e := 32; e < 48; e++ {
			// At most 32 nodes: every candidate runs the exact solver.
			bis = append(bis, bisection(r.network, r.n, e))
		}
	}
	for s := int64(1); s <= 16; s++ {
		for _, kind := range []string{"random", "permutation"} {
			for _, n := range []int{8, 16} {
				rt = append(rt, routing(kind, n, 2, s, "0"))
			}
		}
	}
	var pool []Request
	for _, group := range [][]Request{shuffled(bis, seed, "cluster.bis"), shuffled(rt, seed, "cluster.rt")} {
		local, remote := 0, 0
		for _, r := range group {
			if peerOwns(r.Key()) {
				if remote < size/4 {
					pool = append(pool, r)
					remote++
				}
			} else if local < size/4 {
				pool = append(pool, r)
				local++
			}
		}
		if local < size/4 || remote < size/4 {
			return nil, fmt.Errorf("cluster pool: only %d local and %d peer-owned candidates", local, remote)
		}
	}
	return pool, nil
}

// uniformSequence cycles pseudo-randomly over a pool.
func uniformSequence(pool []Request, seed int64, stream string) func(i int) Request {
	return func(i int) Request { return pool[draw(seed, stream, i, len(pool))] }
}

// parseQuery splits a canonical query into its values (the canonical
// form never repeats or escapes a parameter).
func parseQuery(q string) map[string]string {
	out := make(map[string]string)
	for _, kv := range strings.Split(q, "&") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			out[k] = v
		}
	}
	return out
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}
