// Package mobiquery is a library reproduction of "A Spatiotemporal Query
// Service for Mobile Users in Sensor Networks" (Lu, Xing, Chipara, Fok,
// Bhattacharya; ICDCS 2005), grown into a long-lived query service.
//
// MobiQuery lets a mobile user periodically pull aggregated sensor readings
// from a circular area around their current position, with per-period
// deadlines and data-freshness guarantees, while sensor nodes run extremely
// low duty cycles. Its core idea is just-in-time prefetching: the query is
// relayed between "pickup points" along the user's predicted path and held
// at each hop until the latest safe moment (the paper's equation 10), so
// sleeping nodes wake exactly when their readings are needed.
//
// The package has two entry styles:
//
// The session API (service.go, subscription.go) runs MobiQuery as a
// service: Open stands up the concurrent query engine over a sensor field
// once, then any number of mobile users Subscribe and Unsubscribe while it
// runs, each receiving one aggregate result per query period over a
// channel, evaluated under the period/deadline/freshness contract of their
// QuerySpec:
//
//	svc, err := mobiquery.Open(ctx, mobiquery.DefaultNetworkConfig())
//	sub, err := svc.Subscribe(ctx, spec, mobiquery.LinearMotion(start, 4, 0))
//	for r := range sub.Results() { ... }
//
// The batch API (compat.go) wraps the complete discrete-event reproduction
// of the paper's stack — radio medium, CSMA/PSM link layer, CCP coverage
// backbone, geographic routing, motion prediction, and the MobiQuery
// protocol — behind one-shot calls:
//
//	cfg := mobiquery.DefaultSimulation()
//	cfg.SleepPeriod = 15 * time.Second
//	result, err := mobiquery.RunE(cfg)
//	fmt.Println(result.SuccessRatio)
//
// For reproducing the paper's figures, see internal/experiment via the
// cmd/mobiquery-experiments binary; for the closed-form Section 5 analysis,
// see cmd/mobiquery-analysis.
package mobiquery

import (
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/core"
	"mobiquery/internal/experiment"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/metrics"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
)

// Scheme selects the prefetching strategy.
type Scheme = core.Scheme

// Available schemes: just-in-time prefetching (the paper's contribution),
// greedy prefetching, and the no-prefetching baseline.
const (
	JIT = core.SchemeJIT
	GP  = core.SchemeGP
	NP  = core.SchemeNP
)

// Profiler selects how motion profiles are produced.
type Profiler = experiment.ProfilerKind

// Available profilers: an oracle (exact full path at t=0), a planner-style
// exact profiler with configurable advance time, and a history-based GPS
// predictor with location error.
const (
	Oracle       = experiment.ProfilerOracle
	Planner      = experiment.ProfilerExact
	GPSPredictor = experiment.ProfilerGPS
)

// AggKind selects the aggregation function of a query result.
type AggKind = core.AggKind

// Aggregation functions for query results.
const (
	Count = core.AggCount
	Sum   = core.AggSum
	Min   = core.AggMin
	Max   = core.AggMax
	Avg   = core.AggAvg
)

// Field is a scalar sensor field sampled by the nodes.
type Field = field.Field

// Point is a 2-D location in meters.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// UniformField returns a constant sensor field.
func UniformField(v float64) Field { return field.Uniform{Value: v} }

// GradientField returns a planar ramp field.
func GradientField(base float64, slopeX, slopeY float64) Field {
	return field.Gradient{Base: base, Slope: geom.V(slopeX, slopeY)}
}

// PlumeField returns a Gaussian hot spot drifting at (driftX, driftY) m/s —
// a toy wild-fire front for the paper's motivating scenario.
func PlumeField(center Point, amplitude, sigma, driftX, driftY float64) Field {
	return field.GaussianPlume{Center: center, Amplitude: amplitude, Sigma: sigma, Drift: geom.V(driftX, driftY)}
}

// ServiceConfig sizes the multi-user query engine of the session API
// (NetworkConfig.Service): how many workers dispatch independent users'
// work. The zero value selects one worker per core. Concurrency never
// changes results — only wall time.
type ServiceConfig struct {
	// Shards is ignored: the sensor index is one grid, placed once and
	// never split. The field stays, and Validate still rejects a negative
	// value, because the repository benchmark sets it; it goes when the
	// benchmark stops setting it.
	Shards int
	// Workers is the dispatch worker-pool width (0 = one per core).
	Workers int
}

// Simulation configures one batch MobiQuery run through the discrete-event
// stack. Construct with DefaultSimulation and override fields as needed.
type Simulation struct {
	// Seed makes the run reproducible.
	Seed int64

	// Nodes is the sensor count; RegionSide the square field edge (m).
	Nodes      int
	RegionSide float64

	// SleepPeriod is the PSM duty-cycle period (3-15 s in the paper);
	// nodes are awake for ActiveWindow at the start of each.
	SleepPeriod  time.Duration
	ActiveWindow time.Duration

	// Scheme is the prefetching strategy.
	Scheme Scheme

	// QueryRadius (Rq), Period, Freshness, and Lifetime define the
	// spatiotemporal query.
	QueryRadius float64
	Period      time.Duration
	Freshness   time.Duration
	Lifetime    time.Duration
	Aggregate   core.AggKind

	// SpeedMin/SpeedMax bound the user's speed; the course changes heading
	// every ChangeInterval for Duration.
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration

	// Profiler selects motion-profile generation; AdvanceTime is Ta for
	// the planner; GPSError the location error (m) for the GPS predictor.
	Profiler    Profiler
	AdvanceTime time.Duration
	GPSError    float64

	// Field is what the sensors measure.
	Field Field
}

// DefaultSimulation returns the paper's Section 6.1 settings: 200 nodes in
// 450 m x 450 m, 2 s query period, 1 s freshness, 150 m query radius, a
// walking user, 15 s sleep period, and just-in-time prefetching.
func DefaultSimulation() Simulation {
	sc := experiment.Default()
	return Simulation{
		Seed:           sc.Seed,
		Nodes:          sc.Nodes,
		RegionSide:     sc.RegionSide,
		SleepPeriod:    sc.SleepPeriod,
		ActiveWindow:   sc.ActiveWindow,
		Scheme:         sc.Scheme,
		QueryRadius:    sc.Spec.Radius,
		Period:         sc.Spec.Period,
		Freshness:      sc.Spec.Fresh,
		Lifetime:       sc.Spec.Lifetime,
		Aggregate:      sc.Spec.Agg,
		SpeedMin:       sc.SpeedMin,
		SpeedMax:       sc.SpeedMax,
		ChangeInterval: sc.ChangeInterval,
		Duration:       sc.Duration,
		Profiler:       sc.Profiler,
		AdvanceTime:    sc.AdvanceTime,
		GPSError:       sc.GPSError,
		Field:          sc.Field,
	}
}

// scenario converts the public configuration to the internal one.
func (s Simulation) scenario() experiment.Scenario {
	sc := experiment.Default()
	sc.Seed = s.Seed
	sc.Nodes = s.Nodes
	sc.RegionSide = s.RegionSide
	sc.SleepPeriod = s.SleepPeriod
	sc.ActiveWindow = s.ActiveWindow
	sc.Scheme = s.Scheme
	sc.Spec.Radius = s.QueryRadius
	sc.Spec.Period = s.Period
	sc.Spec.Fresh = s.Freshness
	sc.Spec.Lifetime = s.Lifetime
	sc.Spec.Agg = s.Aggregate
	sc.SpeedMin = s.SpeedMin
	sc.SpeedMax = s.SpeedMax
	sc.ChangeInterval = s.ChangeInterval
	sc.Duration = s.Duration
	sc.Profiler = s.Profiler
	sc.AdvanceTime = s.AdvanceTime
	sc.GPSError = s.GPSError
	sc.Field = s.Field
	return sc
}

// Validate reports configuration errors without running anything.
func (s Simulation) Validate() error { return s.scenario().Validate() }

// QueryResult is the outcome of one query period, both in batch Results
// and on a Subscription's stream.
type QueryResult struct {
	// K is the 1-based period index; the result was due at Deadline
	// (virtual time from the start of the run or session).
	K        int
	Deadline time.Duration
	// Received and OnTime report delivery; Value is the aggregate under
	// the configured function and Contributors the number of distinct
	// in-area nodes whose readings reached the user.
	Received     bool
	OnTime       bool
	Value        float64
	Contributors int
	AreaNodes    int
	Fidelity     float64
	Success      bool

	// The remaining fields are populated only on the streaming path
	// (Service.Subscribe), which evaluates the temporal contract
	// explicitly; batch runs leave them zero.

	// EvaluatedAt is when the service actually computed the result;
	// Lateness is EvaluatedAt - Deadline when that exceeds the spec's
	// deadline slack (OnTime is then false).
	EvaluatedAt time.Duration
	Lateness    time.Duration
	// StaleNodes counts in-area sensors excluded because their newest
	// reading missed the freshness window; MaxStaleness is the age, at the
	// deadline, of the oldest reading that did contribute.
	StaleNodes   int
	MaxStaleness time.Duration

	// Warmup marks a period inside the equation-16 warmup interval after
	// Subscribe or a re-plan: the subscription's prefetch chains were not
	// yet staged, so the result fell back to on-demand collection.
	// PrefetchedNodes counts contributors served from prefetched readings
	// staged along the motion profile. Both stay zero under the on-demand
	// strategy.
	Warmup          bool
	PrefetchedNodes int
	// CorridorHit is always false: the service stages no corridor
	// (QuerySpec.Corridor is ignored). The field stays for the wire's
	// corridor_hit, which round-trips it.
	CorridorHit bool
	// PyramidHit marks a period whose aggregate was served from the
	// service's hierarchical tile pyramid — the query disk decomposed into
	// covered coarse tiles plus a disk-tested fringe — instead of a flat
	// area scan. The served member set is provably identical to the flat
	// scan's (anything unprovable falls back cold, leaving this false);
	// only Sum-derived values may differ in float-addition grouping.
	PyramidHit bool
	// WindowPeriods is the number of period evaluations merged into this
	// result under QuerySpec.Window (fewer than Window during the first
	// results); 0 for ordinary single-period results.
	WindowPeriods int

	// Trace is the period's completed server-side lifecycle span, set only
	// when the subscription carries a trace context (QuerySpec.Trace != 0)
	// so untraced sessions pay nothing for it. The network front-end echoes
	// it on the result frame, letting the client join its own receive
	// timestamp onto the server's segment chain.
	Trace *PeriodSpan
}

// PrefetchStats is a prefetching subscription's planner ledger
// (Subscription.PrefetchStats): replans, prefetched readings served, and
// the end of the current equation-16 warmup interval.
type PrefetchStats = prefetch.Stats

// PyramidStats is the aggregate tile pyramid's ledger
// (Service.PyramidStats): epoch builds, served evaluations, declines by
// reason, and the node-visit accounting that prices pyramid serves against
// the flat scans they replace.
type PyramidStats = pyramid.Stats

// Result summarizes a batch run.
type Result struct {
	// Queries holds one entry per query period.
	Queries []QueryResult
	// SuccessRatio is the fraction of periods delivered on time with
	// fidelity of at least 95% (the paper's headline metric).
	SuccessRatio float64
	// MeanFidelity averages fidelity across periods.
	MeanFidelity float64
	// PowerPerSleepingNode and PowerPerBackboneNode are mean radio power
	// draws in watts.
	PowerPerSleepingNode float64
	PowerPerBackboneNode float64
	// MaxPrefetchLength is the peak number of query trees built ahead of
	// the user (the paper's storage metric, equation 11/12).
	MaxPrefetchLength int
	// BackboneNodes counts the always-on CCP backbone.
	BackboneNodes int
}

// SuccessThreshold is the fidelity cutoff used for SuccessRatio.
const SuccessThreshold = metrics.FidelityThreshold

// TeamMember configures one user in a multi-user simulation. Each member
// issues an independent spatiotemporal query (the base Simulation's query
// parameters) while walking a straight line from Start at the given
// velocity, with an exact motion profile.
type TeamMember struct {
	// QueryID must be unique and non-zero.
	QueryID uint32
	// Scheme is the member's prefetching strategy.
	Scheme Scheme
	// Start is the member's initial position; VelocityX/Y its speed (m/s).
	Start                Point
	VelocityX, VelocityY float64
}

// JITStorageBound returns the paper's equation (12) bound on the number of
// query trees held ahead of the user under just-in-time prefetching.
func JITStorageBound(sleepPeriod, freshness, period time.Duration) int {
	return analysis.StorageJIT(analysis.QueryParams{Period: period, Fresh: freshness, Sleep: sleepPeriod})
}

// WarmupBound returns the equation (16) bound on the warmup interval after
// a motion profile with advance time ta arrives, assuming the prefetch
// message travels much faster than the user.
func WarmupBound(sleepPeriod, freshness, period, ta time.Duration) time.Duration {
	q := analysis.QueryParams{Period: period, Fresh: freshness, Sleep: sleepPeriod}
	return analysis.WarmupInterval(q, ta, 4, 4000)
}
