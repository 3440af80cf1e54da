package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// answer renders a body with one extra table besides the serve row.
func answer(t *testing.T, req Request, table string, rows interface{}) []byte {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(manifestBody(t, req, true), &m); err != nil {
		t.Fatal(err)
	}
	m["tables"] = append(m["tables"].([]interface{}), map[string]interface{}{"name": table, "rows": rows})
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestCheckerRejectsTamperedAndIncompleteBodies(t *testing.T) {
	req := bisection("bn", 8, 32)
	body := manifestBody(t, req, true)
	c := newChecker()
	if err := c.Check(req, "miss", body); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if err := c.Check(req, "hit", body); err != nil {
		t.Fatalf("identical hit rejected: %v", err)
	}
	tampered := bytes.Replace(body, []byte(`"deadline_ms": 10000`), []byte(`"deadline_ms": 10001`), 1)
	for _, src := range []string{"hit", "store-hit", "peer"} {
		if err := c.Check(req, src, tampered); err == nil || !strings.Contains(err.Error(), "differs") {
			t.Fatalf("tampered %s body accepted: %v", src, err)
		}
	}

	other := bisection("bn", 16, 32)
	if err := newChecker().Check(other, "miss", manifestBody(t, other, false)); err == nil || !strings.Contains(err.Error(), "complete:false") {
		t.Fatalf("incomplete body accepted: %v", err)
	}
	if err := newChecker().Check(other, "miss", body); err == nil {
		t.Fatal("body answering another key accepted")
	}
	if err := newChecker().Check(other, "miss", []byte(`{"schema":"x","version":1}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if err := newChecker().Check(other, "miss", body[:len(body)/2]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestCheckerHoldsClosedForms(t *testing.T) {
	cases := []struct {
		req   Request
		table string
		rows  interface{}
		ok    bool
	}{
		{bisection("wn", 16, 64), "bisection.wn", []bisectionRow{{Exact: 16, ExactComplete: true}}, true},
		{bisection("wn", 16, 64), "bisection.wn", []bisectionRow{{Exact: 15, ExactComplete: true}}, false},
		{bisection("ccc", 16, 64), "bisection.ccc", []bisectionRow{{Exact: 8, ExactComplete: true}}, true},
		{bisection("ccc", 16, 64), "bisection.ccc", []bisectionRow{{Exact: 16, ExactComplete: true}}, false},
		{bisection("bn", 4096, 0), "bisection.bn", []bisectionRow{{Constructed: 4000}}, true},
		{bisection("bn", 4096, 0), "bisection.bn", []bisectionRow{{Constructed: 4096}}, false},
		{expansion("ee_wn", 16, "1,2", 64, 12), "expansion.ee_wn", []expansionRow{{K: 12, Exact: 16, ExactComplete: true}}, true},
		{expansion("ee_wn", 16, "1,2", 64, 12), "expansion.ee_wn", []expansionRow{{K: 12, Exact: 14, ExactComplete: true}}, false},
	}
	for _, tc := range cases {
		err := newChecker().Check(tc.req, "miss", answer(t, tc.req, tc.table, tc.rows))
		if (err == nil) != tc.ok {
			t.Errorf("%s %v: err %v, want ok=%v", tc.req.Key(), tc.rows, err, tc.ok)
		}
	}
}
