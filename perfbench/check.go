package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// Checker verifies every answer the benchmark receives. A body must be a
// valid repro/run-manifest whose serve row names the requested key with
// complete:true; exact rows must equal the paper's closed forms where the
// paper fixes them; and every body served from a cache (LRU hit, store
// hit, peer relay) must be byte-identical to the first body seen for its
// key — or, for keys registered with Expect, to the body recorded then.
type Checker struct {
	mu  sync.Mutex
	ref map[string][]byte
}

func newChecker() *Checker { return &Checker{ref: make(map[string][]byte)} }

// cachedSources are the X-Cache values that promise a previously
// rendered body rather than a fresh solve.
var cachedSources = map[string]bool{"hit": true, "store-hit": true, "peer": true}

// Check validates one 200 answer and returns nil or the first failed
// property. It records the first body of each key as its reference.
func (c *Checker) Check(req Request, source string, body []byte) error {
	key := req.Key()
	c.mu.Lock()
	ref, seen := c.ref[key]
	c.mu.Unlock()
	if cachedSources[source] && seen {
		if !bytes.Equal(body, ref) {
			return fmt.Errorf("%s: %s body differs from the first body for this key", key, source)
		}
		return nil
	}
	if err := validateManifest(req, body); err != nil {
		return err
	}
	if !seen {
		c.mu.Lock()
		if _, ok := c.ref[key]; !ok {
			c.ref[key] = append([]byte(nil), body...)
		}
		c.mu.Unlock()
	}
	return nil
}

type manifestDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Tables  []struct {
		Name string          `json:"name"`
		Rows json.RawMessage `json:"rows"`
	} `json:"tables"`
}

type serveRow struct {
	Endpoint string `json:"endpoint"`
	Key      string `json:"key"`
	Complete bool   `json:"complete"`
}

type bisectionRow struct {
	Network       string `json:"network"`
	Exact         int    `json:"exact"`
	ExactComplete bool   `json:"exact_complete"`
	Constructed   int    `json:"constructed"`
}

type expansionRow struct {
	K             int  `json:"k"`
	Exact         int  `json:"exact"`
	ExactComplete bool `json:"exact_complete"`
}

// validateManifest checks one body against its request.
func validateManifest(req Request, body []byte) error {
	key := req.Key()
	var m manifestDoc
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("%s: body is not JSON: %v", key, err)
	}
	if m.Schema != "repro/run-manifest" || m.Version != 1 {
		return fmt.Errorf("%s: schema %q version %d, want repro/run-manifest 1", key, m.Schema, m.Version)
	}
	q := parseQuery(req.Query)
	n := atoi(q["n"])
	served := false
	for _, t := range m.Tables {
		switch t.Name {
		case "serve":
			var rows []serveRow
			if err := json.Unmarshal(t.Rows, &rows); err != nil || len(rows) != 1 {
				return fmt.Errorf("%s: serve table malformed", key)
			}
			r := rows[0]
			if r.Endpoint != req.Endpoint || r.Key != key {
				return fmt.Errorf("%s: serve row answers %s %q", key, r.Endpoint, r.Key)
			}
			if !r.Complete {
				return fmt.Errorf("%s: complete:false", key)
			}
			served = true
		case "bisection.wn", "bisection.ccc", "bisection.bn":
			var rows []bisectionRow
			if err := json.Unmarshal(t.Rows, &rows); err != nil || len(rows) != 1 {
				return fmt.Errorf("%s: %s table malformed", key, t.Name)
			}
			if err := checkBisection(t.Name, n, rows[0]); err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
		case "expansion.ee_wn":
			var rows []expansionRow
			if err := json.Unmarshal(t.Rows, &rows); err != nil {
				return fmt.Errorf("%s: %s table malformed", key, t.Name)
			}
			for _, r := range rows {
				// EE(W16,12) = 16, the optimum §4.3 certifies.
				if n == 16 && r.K == 12 && r.ExactComplete && r.Exact != 16 {
					return fmt.Errorf("%s: EE(W16,12) = %d, want 16", key, r.Exact)
				}
			}
		}
	}
	if !served {
		return fmt.Errorf("%s: no serve table", key)
	}
	return nil
}

// checkBisection holds a bisection row to the closed forms: BW(Wn) = n
// (Lemma 3.2), BW(CCCn) = n/2 (Lemma 3.3), and a constructed Bn cut
// strictly below the folklore n once n ≥ 2^12 (Theorem 2.20's
// construction beating the column cut).
func checkBisection(table string, n int, r bisectionRow) error {
	switch table {
	case "bisection.wn":
		if r.ExactComplete && r.Exact != n {
			return fmt.Errorf("BW(W%d) = %d, want %d", n, r.Exact, n)
		}
	case "bisection.ccc":
		if r.ExactComplete && r.Exact != n/2 {
			return fmt.Errorf("BW(CCC%d) = %d, want %d", n, r.Exact, n/2)
		}
	case "bisection.bn":
		if n >= 1<<12 && (r.Constructed <= 0 || r.Constructed >= n) {
			return fmt.Errorf("constructed B%d cut %d, want in (0, %d)", n, r.Constructed, n)
		}
	}
	return nil
}
