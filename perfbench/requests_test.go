package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

func firstN(seq func(int) Request, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = seq(i)
	}
	return out
}

func sameRequests(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every request sequence is a pure function of (workload, seed): the
// same seed replays the same requests, another seed does not.
func TestSequencesArePure(t *testing.T) {
	owner := func(key string) bool { return len(key)%2 == 0 }
	gens := map[string]func(seed int64) []Request{
		"solve-mix cold": func(s int64) []Request { return firstN(coldSequence(s), 400) },
		"solve-mix hits": func(s int64) []Request {
			return firstN(uniformSequence(shuffled(hotPool(), s, "solve.pool")[:solvePool], s, "solve.hits"), 400)
		},
		"hot-hits":    func(s int64) []Request { return firstN(uniformSequence(hotPool(), s, "hot.open"), 400) },
		"store-churn": func(s int64) []Request { return firstN(storeSequence(s), 400) },
		"cluster-relay": func(s int64) []Request {
			pool, err := clusterPool(s, owner, clusterSize)
			if err != nil {
				t.Fatal(err)
			}
			return append(pool, firstN(uniformSequence(pool, s, "cluster.open"), 400)...)
		},
	}
	for name, gen := range gens {
		if !sameRequests(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if sameRequests(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// Keys meant to be cold never repeat within a run, and never collide
// with the warmed or stored keys.
func TestColdKeysNeverRepeat(t *testing.T) {
	warm := map[string]bool{}
	for _, r := range hotPool() {
		warm[r.Key()] = true
	}
	for _, seed := range []int64{1, 2, 99} {
		seen := map[string]bool{}
		// Far more than one run's closed loop reaches (a few hundred).
		for i, r := range firstN(coldSequence(seed), 4000) {
			if seen[r.Key()] || warm[r.Key()] {
				t.Fatalf("seed %d: cold key %d %s repeats", seed, i, r.Key())
			}
			seen[r.Key()] = true
		}
	}

	stored := map[string]bool{}
	for _, r := range storeKeys(storeFill) {
		if stored[r.Key()] {
			t.Fatalf("store fill repeats %s", r.Key())
		}
		stored[r.Key()] = true
	}
	seq := storeSequence(3)
	fresh := map[string]bool{}
	for i := 0; i < 200000; i++ {
		k := seq(i).Key()
		if stored[k] {
			continue
		}
		if fresh[k] {
			t.Fatalf("fresh store-churn key %s repeats at %d", k, i)
		}
		fresh[k] = true
	}
	if share := float64(len(fresh)) / 200000; share < storeFreshFrac/2 || share > storeFreshFrac*2 {
		t.Errorf("fresh share %.3f, want about %.2f", share, storeFreshFrac)
	}
}

// The store-churn shape is chosen so that, through the daemon's
// storeCache-entry LRU, most reads are store hits and the hottest keys
// are LRU hits. Store hits and fresh solves enter the LRU, as in
// butterflyd.
func TestStoreStreamMostlyStoreHits(t *testing.T) {
	stored := map[string]bool{}
	for _, r := range storeKeys(storeFill) {
		stored[r.Key()] = true
	}
	const n = 100000
	var lru []string // most recent last
	hits, storeHits := 0, 0
	seq := storeSequence(4)
	for i := 0; i < n; i++ {
		k := seq(i).Key()
		at := -1
		for j, e := range lru {
			if e == k {
				at = j
			}
		}
		switch {
		case at >= 0:
			hits++
			lru = append(lru[:at], lru[at+1:]...)
		case stored[k]:
			storeHits++
		}
		lru = append(lru, k)
		if len(lru) > storeCache {
			lru = lru[1:]
		}
	}
	if h, s := float64(hits)/n, float64(storeHits)/n; s < 0.5 || h < 0.25 {
		t.Errorf("LRU hits %.3f, store hits %.3f: want store hits a majority and LRU hits at least a quarter", h, s)
	}
}

// Each solve-mix round holds one key of every family, so no family
// dominates by count and every seed pays the same work per cycle.
func TestColdRoundsCoverEveryFamily(t *testing.T) {
	fams := coldFamilies(5)
	member := func(r Request) string {
		for _, f := range fams {
			for occ := 0; occ < 64; occ++ {
				for _, tpl := range f.templates {
					if tpl(occ) == r {
						return f.name
					}
				}
			}
		}
		return ""
	}
	seq := coldSequence(5)
	for round := 0; round < 16; round++ {
		got := map[string]bool{}
		for slot := 0; slot < len(fams); slot++ {
			got[member(seq(round*len(fams)+slot))] = true
		}
		if len(got) != len(fams) || got[""] {
			t.Fatalf("round %d covers %v", round, got)
		}
	}
}

// The cluster pool is half local, half peer-owned, whatever the ring.
func TestClusterPoolSplitsOwnership(t *testing.T) {
	owner := func(key string) bool { return len(key)%3 == 0 }
	pool, err := clusterPool(4, owner, clusterSize)
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for _, r := range pool {
		if owner(r.Key()) {
			remote++
		}
	}
	if len(pool) != clusterSize || remote != clusterSize/2 {
		t.Fatalf("pool of %d with %d peer-owned, want %d and %d", len(pool), remote, clusterSize, clusterSize/2)
	}
}

// The generators spell keys exactly as butterflyd canonicalizes them:
// the serve row of each answer names the key the benchmark sent.
func TestKeysAreCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every cheap key in process")
	}
	h := serve.New(serve.Config{}).Handler()
	reqs := append(hotPool(), storeKeys(64)...)
	pool, err := clusterPool(1, func(k string) bool { return len(k)%2 == 0 }, clusterSize)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, pool...)
	reqs = append(reqs, expansion("ee_wn", 8, "1", 64, 8), expansion("ne_bn", 8, "1,2", 80, 4), storeSequence(1)(0))
	c := newChecker()
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.Path(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.Key(), rec.Code, rec.Body.String())
		}
		if err := c.Check(r, rec.Header().Get("X-Cache"), rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
}

// The in-process hit replay answers every key from the LRU, however many
// distinct keys the run hit (store-churn hits hundreds).
func TestReplayHitsEveryKey(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 300 keys in process")
	}
	L := map[string]float64{}
	if err := replayHits(L, storeKeys(300)); err != nil {
		t.Fatal(err)
	}
	if L["serve.hit_us"] <= 0 {
		t.Fatalf("serve.hit_us = %v", L["serve.hit_us"])
	}
}
