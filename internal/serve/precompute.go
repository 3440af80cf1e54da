package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/solve"
)

// metricPrecomputed counts grid points the precompute driver solved and
// stored (skips and failures excluded).
var metricPrecomputed = obs.NewCounter("serve.precomputed")

// GridPoint is one declared bisection instance of a precompute grid: the
// (network, size, exact-budget) triple butterflyd -precompute fills the
// store for ahead of traffic.
type GridPoint struct {
	Network    string
	LogN       int
	ExactNodes int
}

// N returns the instance's column count.
func (p GridPoint) N() int { return 1 << p.LogN }

// ParseGrid parses a -precompute grid spec. The grammar is a
// comma-separated list of ranges over log2(n):
//
//	network:lo-hi[:exact-nodes]
//
// e.g. "bn:12-20,wn:4-10:0,ccc:3-8" — butterflies from 2^12 to 2^20
// columns (the constructed-bisection rows), wrapped butterflies with the
// exact solver disabled, CCCs at the default exact budget. Every point
// is validated through the same parser the live endpoint uses, so a grid
// can only ever contain servable requests.
func ParseGrid(spec string) ([]GridPoint, error) {
	var grid []GridPoint
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("precompute: entry %q: want network:lo-hi[:exact-nodes]", entry)
		}
		network := parts[0]
		lo, hi, ok := strings.Cut(parts[1], "-")
		if !ok {
			hi = lo // single size: "bn:12"
		}
		loV, err1 := strconv.Atoi(lo)
		hiV, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || loV > hiV || loV < 1 || hiV > 30 {
			return nil, fmt.Errorf("precompute: entry %q: bad log2-size range %q", entry, parts[1])
		}
		exactNodes := 32
		if len(parts) == 3 {
			exactNodes, err1 = strconv.Atoi(parts[2])
			if err1 != nil {
				return nil, fmt.Errorf("precompute: entry %q: bad exact-nodes %q", entry, parts[2])
			}
		}
		for logN := loV; logN <= hiV; logN++ {
			p := GridPoint{Network: network, LogN: logN, ExactNodes: exactNodes}
			if _, err := p.request(); err != nil {
				return nil, fmt.Errorf("precompute: entry %q at n=2^%d: %w", entry, logN, err)
			}
			grid = append(grid, p)
		}
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("precompute: empty grid spec %q", spec)
	}
	return grid, nil
}

// request canonicalizes the point through the live endpoint's parser, so
// precomputed keys are exactly the keys real queries produce.
func (p GridPoint) request() (queryRequest, error) {
	q := queryValues{
		"network":     []string{p.Network},
		"n":           []string{strconv.Itoa(p.N())},
		"exact-nodes": []string{strconv.Itoa(p.ExactNodes)},
	}
	return parseBisectionRequest(q)
}

// PrecomputeResult summarizes one batch fill.
type PrecomputeResult struct {
	Solved  int // solved and stored
	Skipped int // already present in the store
	Failed  int // solve error or budget-truncated (not stored)
}

// Precompute fills the configured store for every grid point not already
// present, at the given worker parallelism (≤0: solve.Workers), each solve
// under the server's MaxDeadline budget. Only complete solves are
// stored — a truncated row could otherwise mask the full answer forever.
// Cancelling ctx stops cleanly after the in-flight points; logf (may be
// nil) receives one line per point.
func (s *Server) Precompute(ctx context.Context, grid []GridPoint, workers int, logf func(format string, args ...interface{})) (PrecomputeResult, error) {
	if s.cfg.Store == nil {
		return PrecomputeResult{}, fmt.Errorf("precompute: server has no store")
	}
	workers = solve.Workers(workers)
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	var solved, skipped, failed atomic.Int64
	points := make(chan GridPoint)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range points {
				key, err := s.precomputeOne(ctx, p)
				switch {
				case err == errAlreadyStored:
					skipped.Add(1)
					logf("precompute: %s (already stored)", key)
				case err != nil:
					failed.Add(1)
					logf("precompute: %s FAILED: %v", key, err)
				default:
					solved.Add(1)
					metricPrecomputed.Inc()
					logf("precompute: %s stored", key)
				}
			}
		}()
	}
feed:
	for _, p := range grid {
		select {
		case points <- p:
		case <-ctx.Done():
			break feed
		}
	}
	close(points)
	wg.Wait()

	res := PrecomputeResult{
		Solved:  int(solved.Load()),
		Skipped: int(skipped.Load()),
		Failed:  int(failed.Load()),
	}
	if err := s.cfg.Store.Sync(); err != nil {
		return res, err
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("precompute: %d of %d grid points failed", res.Failed, len(grid))
	}
	return res, ctx.Err()
}

// errAlreadyStored marks a grid point skipped because the store already
// holds its key.
var errAlreadyStored = fmt.Errorf("already stored")

// precomputeOne solves one grid point and stores its rendered body under
// the canonical request key, exactly as the live solve path would have
// rendered it.
func (s *Server) precomputeOne(ctx context.Context, p GridPoint) (string, error) {
	req, err := p.request()
	if err != nil {
		return "", err
	}
	key := "bisection?" + req.Key()
	if s.cfg.Store.Has(key) {
		return key, errAlreadyStored
	}
	solveCtx, cancel := context.WithTimeout(ctx, s.cfg.MaxDeadline)
	defer cancel()
	begin := time.Now()
	m, err := req.Solve(solveCtx, s)
	if err != nil {
		return key, err
	}
	if solveCtx.Err() != nil {
		return key, fmt.Errorf("budget %s expired before a complete solve", s.cfg.MaxDeadline)
	}
	resp, err := s.render(m, "bisection", key, s.cfg.MaxDeadline, true, time.Since(begin))
	if err != nil {
		return key, err
	}
	return key, s.cfg.Store.Put(key, resp.body)
}
