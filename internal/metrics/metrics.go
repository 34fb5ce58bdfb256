// Package metrics evaluates MobiQuery runs against the paper's performance
// metrics (Section 6): per-query data fidelity, success ratio, storage
// (prefetch length), and summary statistics with 95% confidence intervals.
package metrics

import (
	"math"
	"sort"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// FidelityThreshold is the paper's success-ratio fidelity cutoff (95%).
const FidelityThreshold = 0.95

// QueryRecord is the evaluated outcome of one query period.
type QueryRecord struct {
	K            int
	Deadline     sim.Time
	Received     bool
	OnTime       bool
	AreaNodes    int            // sensor nodes inside the true query area
	Contributors int            // contributors inside the true query area
	Missing      []radio.NodeID // in-area nodes that did not contribute
	Value        float64        // the aggregate under the query's function
	Fidelity     float64        // contributors / nodes in the TRUE query area
	// TargetFidelity scores the result against the area it actually
	// targeted (the circle around its pickup point). It equals Fidelity
	// under exact motion profiles and forgives prediction drift under
	// noisy ones; the paper's fidelity definition is ambiguous between the
	// two readings, so both are reported.
	TargetFidelity float64
	Success        bool // OnTime && Fidelity >= threshold
	TargetSuccess  bool // OnTime && TargetFidelity >= threshold
}

// EvaluateAgg scores gateway results against ground truth: the true query
// area is the circle of radius rq around the user's actual position at each
// deadline, and fidelity is the fraction of its sensor nodes whose readings
// reached the user (Section 6's definition). agg is the aggregation function
// each record's Value reports. Sensor i sits at positions[i], inside region;
// the positions are indexed once in a one-shard geom.ShardedGrid with
// rq-sized cells, the grid the radio medium and CCP use, so "inside the
// area" is the engine's own inclusive disk test.
func EvaluateAgg(results []core.PeriodResult, course mobility.Course, region geom.Rect, positions []geom.Point, rq float64, agg core.AggKind) []QueryRecord {
	grid := geom.NewShardedGrid(region, rq, 1)
	for i, p := range positions {
		grid.Insert(int32(i), p)
	}
	out := make([]QueryRecord, 0, len(results))
	for _, pr := range results {
		rec := QueryRecord{
			K:        pr.K,
			Deadline: pr.Deadline,
			Received: pr.Received,
			OnTime:   pr.Received && pr.OnTime,
		}
		if pr.Received {
			rec.Value = pr.Data.Value(agg)
		}
		userPos := course.PosAt(pr.Deadline)
		inArea := make(map[radio.NodeID]bool)
		grid.VisitWithin(userPos, rq, func(id int32, _ geom.Point) { inArea[radio.NodeID(id)] = true })
		rec.AreaNodes = len(inArea)
		seen := make(map[radio.NodeID]bool)
		if pr.Received {
			for _, id := range pr.Contribs {
				if inArea[id] && !seen[id] {
					seen[id] = true
					rec.Contributors++
				}
			}
		}
		if pr.Received {
			targetHits := 0
			tseen := make(map[radio.NodeID]bool, len(pr.Contribs))
			for _, id := range pr.Contribs {
				if id < 0 || int(id) >= len(positions) {
					continue
				}
				if positions[id].Within(pr.Pickup, rq) && !tseen[id] {
					tseen[id] = true
					targetHits++
				}
			}
			targetNodes := 0
			grid.VisitWithin(pr.Pickup, rq, func(int32, geom.Point) { targetNodes++ })
			if targetNodes > 0 {
				rec.TargetFidelity = float64(targetHits) / float64(targetNodes)
			} else {
				rec.TargetFidelity = 1
			}
		}
		for id := range inArea {
			if !seen[id] {
				rec.Missing = append(rec.Missing, id)
			}
		}
		sort.Slice(rec.Missing, func(i, j int) bool { return rec.Missing[i] < rec.Missing[j] })
		if rec.AreaNodes > 0 {
			rec.Fidelity = float64(rec.Contributors) / float64(rec.AreaNodes)
		} else {
			rec.Fidelity = 1 // empty area: vacuously perfect
		}
		rec.Success = rec.OnTime && rec.Fidelity >= FidelityThreshold
		rec.TargetSuccess = rec.OnTime && rec.TargetFidelity >= FidelityThreshold
		out = append(out, rec)
	}
	return out
}

// SuccessRatio returns the fraction of records that met the deadline with
// fidelity at or above the threshold.
func SuccessRatio(records []QueryRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	n := 0
	for _, r := range records {
		if r.Success {
			n++
		}
	}
	return float64(n) / float64(len(records))
}

// TargetSuccessRatio is SuccessRatio computed against each result's
// targeted area rather than the user's true area (see TargetFidelity).
func TargetSuccessRatio(records []QueryRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	n := 0
	for _, r := range records {
		if r.TargetSuccess {
			n++
		}
	}
	return float64(n) / float64(len(records))
}

// MeanFidelity returns the average fidelity across records (missing results
// count as zero fidelity).
func MeanFidelity(records []QueryRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range records {
		sum += r.Fidelity
	}
	return sum / float64(len(records))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tTable holds two-sided 97.5% Student-t quantiles for small sample sizes
// (index = degrees of freedom), as used for the paper's 95% confidence
// intervals over 3-5 runs.
var tTable = []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}

// MeanCI95 returns the mean of xs and the half-width of its 95% confidence
// interval (0 for fewer than two samples).
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	df := n - 1
	t := 1.96
	if df < len(tTable) {
		t = tTable[df]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}
