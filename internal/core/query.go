// Package core implements the MobiQuery spatiotemporal query service: the
// query gateway on the mobile proxy, per-node protocol agents (prefetching,
// query dissemination, data collection with in-network aggregation), the
// just-in-time and greedy prefetching schemes, and the No-Prefetching
// baseline from the paper's evaluation.
package core

import (
	"fmt"
	"math"
	"time"

	"mobiquery/internal/sim"
)

// AggKind selects the in-network aggregation function F of a query.
type AggKind uint8

// Supported aggregation functions.
const (
	AggCount AggKind = iota + 1
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the aggregation function name.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggKind(%d)", int(a))
	}
}

// Valid reports whether a is a known aggregation function.
func (a AggKind) Valid() bool { return a >= AggCount && a <= AggAvg }

// QuerySpec is the user-facing specification of a spatiotemporal query,
// mirroring the paper's tuple (alpha, F, A(Pu(t)), Tperiod, Tfresh, Td).
// The sensor type alpha is implicit in the field being sampled.
type QuerySpec struct {
	// Agg is the aggregation function F.
	Agg AggKind
	// Radius is Rq: the query area is a circle of this radius centered on
	// the user (paper: 150 m).
	Radius float64
	// Period is Tperiod: a new result is due every Period (paper: 2 s).
	Period time.Duration
	// Fresh is Tfresh: readings older than this at the deadline are
	// unacceptable (paper: 1 s).
	Fresh time.Duration
	// Lifetime is Td: the query session duration.
	Lifetime time.Duration
}

// Validate reports specification errors, including the paper's feasibility
// assumption Tfresh <= Tperiod.
func (s QuerySpec) Validate() error {
	switch {
	case !s.Agg.Valid():
		return fmt.Errorf("core: invalid aggregation %v", s.Agg)
	case s.Radius <= 0:
		return fmt.Errorf("core: query radius %v must be positive", s.Radius)
	case s.Period <= 0:
		return fmt.Errorf("core: query period %v must be positive", s.Period)
	case s.Fresh <= 0:
		return fmt.Errorf("core: freshness bound %v must be positive", s.Fresh)
	case s.Fresh > s.Period:
		return fmt.Errorf("core: freshness %v must not exceed period %v", s.Fresh, s.Period)
	case s.Lifetime < s.Period:
		return fmt.Errorf("core: lifetime %v shorter than one period %v", s.Lifetime, s.Period)
	}
	return nil
}

// Periods returns the number of query periods in the session.
func (s QuerySpec) Periods() int { return int(s.Lifetime / s.Period) }

// Deadline returns the absolute deadline of the kth result (1-based) for a
// query issued at t0.
func (s QuerySpec) Deadline(t0 sim.Time, k int) sim.Time {
	return t0 + sim.Time(k)*s.Period
}

// Partial is a decomposable partial aggregate carried up the query tree.
// Count/Sum/Min/Max support every AggKind in one fixed-size 32-byte record,
// the standard TAG construction: the one record the engine's evaluations,
// the tile pyramid and the discrete-event radio path share. The radio path's
// contributor list is fidelity bookkeeping, never sent on air; its messages
// carry it beside the partial.
type Partial struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// NewPartial returns an empty partial aggregate.
func NewPartial() Partial {
	return Partial{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add folds one reading into p.
func (p *Partial) Add(v float64) {
	p.Count++
	p.Sum += v
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
}

// Merge folds another partial aggregate into p.
func (p *Partial) Merge(q Partial) {
	p.Count += q.Count
	p.Sum += q.Sum
	if q.Min < p.Min {
		p.Min = q.Min
	}
	if q.Max > p.Max {
		p.Max = q.Max
	}
}

// Value evaluates the aggregate under the given function. Min/Max/Avg of an
// empty partial return NaN.
func (p Partial) Value(a AggKind) float64 {
	switch a {
	case AggCount:
		return float64(p.Count)
	case AggSum:
		return p.Sum
	case AggMin:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Min
	case AggMax:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Max
	case AggAvg:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Sum / float64(p.Count)
	default:
		return math.NaN()
	}
}
