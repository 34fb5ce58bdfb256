package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the middle two for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// segmentStat is what one segment of a pass measured.
type segmentStat struct {
	Rate  float64 // periods per wall second
	CPUUS float64 // process CPU µs per period
	P50MS float64 // lateness percentiles over the segment's results
	P99MS float64
}

// passLog is the raw record of a pass's measured boundaries: for boundary i,
// the instant and the process CPU time at which it completed and the
// periods it delivered; latenessNS holds one sample per delivered period,
// in boundary order.
type passLog struct {
	startNS, startCPU int64
	endNS, cpuNS      []int64
	work              []int32
	latenessNS        []uint32
}

// segments splits the boundaries into n equal consecutive groups (the
// remainder at the tail is dropped) and measures each group on its own.
// Reporting an order statistic of the groups keeps a slow stretch — a
// neighbour's burst on a shared machine, a garbage collection — from
// deciding a metric.
func (r passLog) segments(n int) []segmentStat {
	if n <= 0 || len(r.endNS) < n {
		return nil
	}
	per := len(r.endNS) / n
	out := make([]segmentStat, 0, n)
	fromNS, fromCPU, sample := r.startNS, r.startCPU, 0
	scratch := make([]float64, 0, len(r.latenessNS)/n+1)
	for s := 0; s < n; s++ {
		var periods int
		for i := s * per; i < (s+1)*per; i++ {
			periods += int(r.work[i])
		}
		last := (s+1)*per - 1
		st := segmentStat{
			Rate:  float64(periods) / (float64(r.endNS[last]-fromNS) / 1e9),
			CPUUS: float64(r.cpuNS[last]-fromCPU) / 1e3 / float64(periods),
		}
		// A failed result leaves no lateness sample, so a pass with
		// failures may run out of samples early; it is not correct anyway.
		to := min(sample+periods, len(r.latenessNS))
		scratch = scratch[:0]
		for _, ns := range r.latenessNS[sample:to] {
			scratch = append(scratch, float64(ns)/1e6)
		}
		slices.Sort(scratch)
		st.P50MS, st.P99MS = percentile(scratch, 50), percentile(scratch, 99)
		out = append(out, st)
		fromNS, fromCPU, sample = r.endNS[last], r.cpuNS[last], to
	}
	return out
}

// column returns f of every segment, in order.
func column(segs []segmentStat, f func(segmentStat) float64) []float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return vs
}

// mix64 is the SplitMix64 finalizer, the harness's one integer hash: the
// digest, the trace ids and the per-boundary churn seeds all derive from it.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// resultDigest hashes the fields of one result that the Shards/Workers
// invariant and the wire round trip must preserve. Results are combined by
// wrapping addition, so the digest of a set is independent of the order the
// results were received in.
func resultDigest(id uint32, k int, value float64, contributors, areaNodes, staleNodes int) uint64 {
	h := mix64(uint64(id)<<32 | uint64(uint32(k)))
	h = mix64(h ^ math.Float64bits(value))
	h = mix64(h ^ uint64(uint32(contributors))<<32 ^ uint64(uint32(areaNodes)))
	return mix64(h ^ uint64(uint32(staleNodes)))
}
