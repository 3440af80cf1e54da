package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default), or NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (no attempts, nothing wasted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func bySource(src string) func(record) bool {
	return func(r record) bool { return r.Source == src }
}

// Windowing: a run's latency figures are medians over short spans of its
// segments, so a host stall that hits one span moves one medianed value
// instead of the whole run.
const windowSamples = 1000 // latency samples per span

// windowed splits each segment's successful records that pass keep into
// equal spans of their due times, one per windowSamples, and returns the
// median over all spans of the q-quantile of latency (µs), with the
// sample count. When the segments together hold fewer than windowSamples
// per segment, their records are pooled into one sample instead, so a
// sparse class (a few hundred solves) still has samples beyond its tail.
func windowed(segs [][]record, keep func(record) bool, q float64) (float64, int) {
	var kept [][]record
	total := 0
	for _, recs := range segs {
		var k []record
		for _, r := range recs {
			if !r.failed() && keep(r) {
				k = append(k, r)
			}
		}
		kept = append(kept, k)
		total += len(k)
	}
	if total == 0 {
		return math.NaN(), 0
	}
	if total < windowSamples*len(segs) {
		var all []float64
		for _, k := range kept {
			for _, r := range k {
				all = append(all, us(r.latency()))
			}
		}
		return quantile(all, q), total
	}
	var stats []float64
	for _, k := range kept {
		if len(k) == 0 {
			continue
		}
		sort.Slice(k, func(i, j int) bool { return k[i].Due.Before(k[j].Due) })
		n := len(k) / windowSamples
		if n < 1 {
			n = 1
		}
		first, span := k[0].Due, k[len(k)-1].Due.Sub(k[0].Due)+1
		parts := make([][]float64, n)
		for _, r := range k {
			w := int(int64(r.Due.Sub(first)) * int64(n) / int64(span))
			parts[w] = append(parts[w], us(r.latency()))
		}
		for _, p := range parts {
			if len(p) > 0 {
				stats = append(stats, quantile(p, q))
			}
		}
	}
	return median(stats), total
}
