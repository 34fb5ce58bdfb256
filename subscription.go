package mobiquery

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
)

// Strategy selects how a subscription prefetches sensor data along the
// user's predicted motion (QuerySpec.Strategy). The zero value is on-demand
// sampling, exactly the behavior of a spec without a strategy.
type Strategy = prefetch.Strategy

// OnDemandStrategy samples the field as each period is collected — no
// prediction, no prefetching. The zero Strategy.
func OnDemandStrategy() Strategy { return Strategy{} }

// JITStrategy prefetches just in time (the paper's contribution): each
// period's readings are staged at the predicted pickup point by dispatching
// its chain at the latest safe moment (equation 10), holding per-user
// storage at the equation-12 constant.
func JITStrategy() Strategy { return Strategy{Kind: prefetch.JIT} }

// GreedyStrategy prefetches eagerly, keeping chains dispatched `lookahead`
// periods ahead (equation 11 storage); readings are captured when the
// freshness window opens and held until their boundary. lookahead 0 selects
// the smallest window that still meets every equation-10 deadline —
// a positive lookahead below that minimum can never stage a period on
// time, leaving the subscription in permanent on-demand fallback with
// Warmup set (see Strategy.Lookahead).
func GreedyStrategy(lookahead int) Strategy {
	return Strategy{Kind: prefetch.Greedy, Lookahead: lookahead}
}

// ErrorModel bounds the location error of a subscription's predicted
// positions: a fixed Base (meters) plus Growth (meters per second) of
// prediction age. The corridor inflates every predicted query circle by
// the bound; an actual position escaping it is a mispredict.
type ErrorModel = corridor.ErrorModel

// GPSErrorModel returns the ErrorModel covering a GPS predictor with the
// given per-reading error radius, re-profiling threshold (0 selects the
// predictor default), maximum user speed, and sampling period — the safe
// corridor inflation for subscriptions driven by GPSPredictedMotion.
func GPSErrorModel(err, threshold, maxSpeed float64, sampling time.Duration) ErrorModel {
	return corridor.GPSErrorModel(err, threshold, maxSpeed, sampling)
}

// CorridorSpec configures spatial corridor prefetching (QuerySpec.Corridor):
// the service sweeps the subscription's predicted query area over the next
// Lookahead period boundaries into an error-inflated corridor of spatial-
// index cells and stages per-boundary node snapshots ahead of each
// boundary, so staged periods are evaluated from warm, contiguous buffers
// instead of cold index scans. Results are bit-identical either way — a
// snapshot is served only when it provably covers the user's actual query
// circle on an unchanged node index; anything else (including a mispredict,
// which also forces an immediate re-plan from ground truth) falls back to
// the cold scan.
type CorridorSpec struct {
	// Lookahead is how many period boundaries ahead the corridor stages.
	// Zero disables the corridor entirely — the exact pre-corridor
	// behavior. Requires a prefetching Strategy when positive.
	Lookahead int
	// ErrorModel bounds the prediction error the corridor absorbs. The
	// zero model trusts predictions exactly: any deviation of the actual
	// position from the predicted one is a mispredict. Subscriptions fed
	// by noisy predictors should use GPSErrorModel or a custom bound.
	ErrorModel ErrorModel
}

// QuerySpec is the streaming form of the paper's spatiotemporal query
// tuple: one aggregate over a circle around the mobile user, due every
// Period, computed from sufficiently fresh readings.
type QuerySpec struct {
	// Radius is Rq: the query area is a circle of this radius (m) centered
	// on the user's current position.
	Radius float64
	// Period is Tperiod: one result is due every Period, the kth at
	// subscription time + k*Period.
	Period time.Duration
	// Deadline is the slack after each period boundary before the result
	// counts as late. Zero is strict: a result evaluated any time after
	// its boundary is marked late.
	Deadline time.Duration
	// Freshness is Tfresh: readings older than this at the period boundary
	// are excluded from the result (they show up in
	// QueryResult.StaleNodes). Zero disables the window.
	Freshness time.Duration
	// Aggregate selects the aggregation function; zero selects Avg.
	Aggregate AggKind
	// Lifetime bounds the session: the subscription closes itself after
	// Lifetime/Period results. Zero streams until Close or context
	// cancellation.
	Lifetime time.Duration
	// Strategy selects predictive sampling along the user's motion
	// (JITStrategy, GreedyStrategy). The zero value keeps on-demand
	// sampling — exactly the pre-strategy behavior.
	Strategy Strategy
	// Corridor enables spatial corridor prefetching on top of the
	// Strategy's temporal staging. The zero value disables it.
	Corridor CorridorSpec
	// Window widens each result to an aggregate over the last Window query
	// periods: the kth result merges the Window most recent single-period
	// evaluations (each taken at its own boundary position, staleness aged
	// to the current deadline), with QueryResult.WindowPeriods reporting
	// how many periods actually contributed (fewer during the first
	// Window-1 results). 0 or 1 keeps ordinary single-period results.
	// Requires the on-demand Strategy: a windowed result spans boundaries,
	// which the per-period prefetch ledger cannot attribute.
	Window int
	// Trace is an optional caller-minted trace context. When non-zero,
	// every period of the subscription carries a span identified by
	// (Trace, MintSpanID(Trace, k)); completed spans are attached to
	// QueryResult.Trace so a network front-end can echo them to the
	// client. Zero (the default) leaves the subscription untraced: its
	// periods still build a span each, for the trace ring and the service
	// firehose, but mint no span id and attach no copy to the result.
	Trace TraceID
}

// Validate reports specification errors, including the paper's feasibility
// assumption Tfresh <= Tperiod — relaxed for prefetching strategies, whose
// equation-10 hold windows let a held reading legitimately outlive a
// period.
func (q QuerySpec) Validate() error {
	if err := q.Strategy.Validate(); err != nil {
		return err
	}
	switch {
	case q.Radius <= 0:
		return fmt.Errorf("mobiquery: query radius %v must be positive", q.Radius)
	case q.Period <= 0:
		return fmt.Errorf("mobiquery: query period %v must be positive", q.Period)
	case q.Deadline < 0:
		return fmt.Errorf("mobiquery: deadline slack %v must be non-negative", q.Deadline)
	case q.Freshness < 0:
		return fmt.Errorf("mobiquery: freshness %v must be non-negative", q.Freshness)
	case q.Freshness > q.Period && !q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: freshness %v must not exceed period %v for on-demand sampling (a prefetching Strategy may hold readings across periods)", q.Freshness, q.Period)
	case q.Aggregate != 0 && !q.Aggregate.Valid():
		return fmt.Errorf("mobiquery: invalid aggregation %v", q.Aggregate)
	case q.Lifetime < 0:
		return fmt.Errorf("mobiquery: lifetime %v must be non-negative", q.Lifetime)
	case q.Lifetime != 0 && q.Lifetime < q.Period:
		return fmt.Errorf("mobiquery: lifetime %v shorter than one period %v", q.Lifetime, q.Period)
	case q.Corridor.Lookahead < 0:
		return fmt.Errorf("mobiquery: corridor lookahead %d must be non-negative", q.Corridor.Lookahead)
	case q.Corridor.Lookahead > 0 && !q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: corridor prefetching needs a prefetching Strategy (JITStrategy/GreedyStrategy)")
	case q.Window < 0:
		return fmt.Errorf("mobiquery: window %d must be non-negative", q.Window)
	case q.Window > 1 && q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: windowed aggregation (Window %d) requires the on-demand Strategy", q.Window)
	}
	if err := q.Corridor.ErrorModel.Validate(); err != nil {
		return err
	}
	return nil
}

// MotionSource supplies a subscriber's position over the service's virtual
// time. t is measured from the subscription instant. Implementations must
// be pure: the service may query any instant, in any order.
type MotionSource interface {
	PositionAt(t time.Duration) Point
}

// staticSource pins the user to one position.
type staticSource struct{ p Point }

func (s staticSource) PositionAt(time.Duration) Point { return s.p }

// StaticPosition returns a MotionSource for a user standing at p. Combine
// with Subscription.UpdateWaypoint to move the user by explicit updates.
func StaticPosition(p Point) MotionSource { return staticSource{p: p} }

// linearSource moves the user on a straight line.
type linearSource struct {
	start Point
	v     geom.Vec
}

func (l linearSource) PositionAt(t time.Duration) Point {
	return l.start.Add(l.v.Scale(t.Seconds()))
}

// LinearMotion returns a MotionSource for a user walking a straight line
// from start at (vx, vy) m/s.
func LinearMotion(start Point, vx, vy float64) MotionSource {
	return linearSource{start: start, v: geom.V(vx, vy)}
}

// ProfileSource is a MotionSource that also supplies its own stream of
// predicted motion profiles — typically a history-based predictor whose
// predictions carry location error, as opposed to the exact profiles the
// service otherwise synthesizes from the source's positions. A prefetching
// subscription backed by a ProfileSource plans (and, with a Corridor,
// stages) from the predictions while its actual positions keep following
// PositionAt — the paper's Section 6.3 location-error setting, live.
//
// The interface is sealed: construct implementations with PlannedMotion
// or GPSPredictedMotion.
type ProfileSource interface {
	MotionSource
	// predictedProfiles returns the profile stream in delivery order, all
	// times relative to the subscription instant.
	predictedProfiles() []mobility.TimedProfile
}

// CourseConfig describes a ground-truth random-direction course (the
// paper's evaluation mobility): the user starts at Start, draws a fresh
// heading and a speed in [SpeedMin, SpeedMax] every ChangeInterval, and
// reflects off the RegionSide × RegionSide boundary for Duration.
type CourseConfig struct {
	Seed           int64
	RegionSide     float64
	Start          Point
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration
}

// GPSConfig describes the noisy history-based predictor laid over a
// course: a GPS reading every Sampling with up to Error meters of uniform
// disk error, re-profiling (a fresh straight-line prediction) whenever a
// reading diverges from the active prediction by more than Threshold
// (zero selects a default above the noise floor).
type GPSConfig struct {
	Seed      int64
	Sampling  time.Duration
	Error     float64
	Threshold float64
}

// courseMotion is the ProfileSource behind PlannedMotion and
// GPSPredictedMotion: a ground-truth course and the predictions laid over it.
type courseMotion struct {
	course   mobility.Course
	profiles []mobility.TimedProfile
}

func (g *courseMotion) PositionAt(t time.Duration) Point { return g.course.PosAt(t) }

func (g *courseMotion) predictedProfiles() []mobility.TimedProfile { return g.profiles }

// newCourse validates course and draws it from its seed.
func newCourse(course CourseConfig) (mobility.Course, error) {
	spec := mobility.CourseSpec{
		Region:         geom.Square(course.RegionSide),
		Start:          course.Start,
		SpeedMin:       course.SpeedMin,
		SpeedMax:       course.SpeedMax,
		ChangeInterval: course.ChangeInterval,
		Duration:       course.Duration,
	}
	if err := spec.Validate(); err != nil {
		return mobility.Course{}, err
	}
	return mobility.NewRandomCourse(spec, rand.New(rand.NewSource(course.Seed))), nil
}

// PlannedMotion returns a ProfileSource whose predictions are exact: one
// profile per leg of a random-direction course, each delivered the instant
// its leg begins (the discrete-event Planner profiler with no advance time).
// A prefetching subscription over it plans every leg from the truth, so a
// Corridor with a few meters of ErrorModel never mispredicts. The source is
// deterministic in its seed.
func PlannedMotion(course CourseConfig) (ProfileSource, error) {
	c, err := newCourse(course)
	if err != nil {
		return nil, err
	}
	return &courseMotion{course: c, profiles: mobility.ExactProfiler{Course: c}.Profiles()}, nil
}

// GPSPredictedMotion returns a ProfileSource whose ground truth follows a
// random-direction course while its predictions come from a noisy GPS
// predictor — actual positions and predicted profiles deliberately
// disagree, within gps.Error and the predictor's threshold. Pair it with a
// prefetching Strategy and a Corridor whose ErrorModel covers the
// predictor (see GPSErrorModel) to exercise spatial prefetching under
// location error. The source is deterministic in its seeds.
func GPSPredictedMotion(course CourseConfig, gps GPSConfig) (ProfileSource, error) {
	c, err := newCourse(course)
	if err != nil {
		return nil, err
	}
	if gps.Sampling <= 0 {
		return nil, fmt.Errorf("mobiquery: GPS sampling period %v must be positive", gps.Sampling)
	}
	if gps.Error < 0 {
		return nil, fmt.Errorf("mobiquery: GPS error %v must be non-negative", gps.Error)
	}
	predictor := mobility.GPSPredictor{
		Course:    c,
		Sampling:  gps.Sampling,
		Err:       gps.Error,
		Threshold: gps.Threshold,
		RNG:       rand.New(rand.NewSource(gps.Seed)),
	}
	return &courseMotion{course: c, profiles: predictor.Profiles()}, nil
}

// shiftProfile translates a profile's course-relative times onto the
// service clock: a subscription opened at t0 sees the course's instant x
// at virtual time t0+x.
func shiftProfile(p mobility.Profile, t0 time.Duration) mobility.Profile {
	if t0 == 0 {
		return p
	}
	wps := p.Path.Waypoints()
	for i := range wps {
		wps[i].T += t0
	}
	p.Path = mobility.NewTrajectory(wps)
	p.TS += t0
	p.Generated += t0
	return p
}

// bootstrapProfile is the prediction a profile-driven subscription plans
// from before its predictor's first delivery: the user is assumed to hold
// the position they subscribed at (the predictor needs a couple of
// readings before it can do better).
func bootstrapProfile(p Point, t0 time.Duration) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.Stationary(p, t0),
		TS:        t0,
		Generated: t0,
		Version:   0,
	}
}

// profileFromSource synthesizes the motion profile a prefetch planner works
// from at Subscribe time: positions sampled one period apart anchor a
// piecewise-linear predicted path, which extrapolates past its last sample
// with the final leg's velocity (so linear sources are predicted exactly,
// forever). The profile is generated the instant it takes effect (Ta = 0),
// so equation 16 charges the full warmup interval — the cost of joining
// with no advance notice.
func profileFromSource(src MotionSource, t0, period time.Duration) mobility.Profile {
	const legs = 8
	wps := make([]mobility.Waypoint, 0, legs+1)
	for i := 0; i <= legs; i++ {
		rel := time.Duration(i) * period
		wps = append(wps, mobility.Waypoint{T: t0 + rel, P: src.PositionAt(rel)})
	}
	return mobility.Profile{
		Path:      mobility.NewTrajectory(wps),
		TS:        t0,
		Generated: t0,
		Version:   1,
		// Validity 0: the prediction covers every future boundary.
	}
}

// lineProfile is the prediction one ground-truth observation supports: a
// straight line from pos at vel, generated the instant it takes effect
// (Ta = 0, so equation 16 charges the full warmup interval — the cost of a
// motion change) and covering every later boundary.
func lineProfile(pos Point, vel geom.Vec, at, period time.Duration) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.LinearPath(pos, vel, at, at+period),
		TS:        at,
		Generated: at,
		Version:   1,
	}
}

// SubscriptionStats summarizes a subscription's temporal ledger.
type SubscriptionStats struct {
	// Delivered counts results handed to the Results channel; Dropped
	// those discarded because the subscriber's buffer was full; Late those
	// delivered past their deadline slack.
	Delivered int
	Dropped   int
	Late      int
	// NextPeriod is the 1-based index of the next period due.
	NextPeriod int
}

// Subscription is one mobile user's live query session. Results arrive on
// the Results channel, one per query period; the channel is closed when
// the subscription ends (Close, context cancellation, service Close, or
// the spec's Lifetime running out).
type Subscription struct {
	svc  *Service
	id   uint32
	spec QuerySpec
	src  MotionSource
	t0   time.Duration
	agg  AggKind

	results chan QueryResult
	// q is the engine query, stored in place: the period path drives it, its
	// registration is the subscription's membership in the service, and its
	// lock guards the session state below. Registered by Subscribe before the
	// subscription is returned or reachable by an Advance or Service.Close.
	q core.Query

	// The query's serve machinery, wired to q's hooks once by attach: a
	// prefetching spec's planner and, with a corridor, its cache; an
	// on-demand spec's shared pyramid, when its boundary class uses one. Each
	// is nil when unused. Neither the planner nor the cache has a lock: after
	// attach, every call into them is made under q's lock — serve drives them
	// around every evaluation (before, after), UpdateWaypoint and
	// PrefetchStats take the hold too. Advance ingests the pyramid's epoch
	// before its fan-out.
	planner *prefetch.Planner
	cache   *corridor.Cache
	pyramid *pyramid.Pyramid
	// stream is a ProfileSource's predicted-profile stream on the service
	// clock, next its first undelivered index. Read and advanced by before,
	// under q's lock.
	stream []mobility.TimedProfile
	next   int
	// lastPos/lastAt are the latest ground-truth observation — where the
	// query registered, then each evaluated boundary — from which a
	// mispredict correction takes its velocity. Under q's lock once attached.
	lastPos Point
	lastAt  time.Duration

	// trace is the fixed-depth ring of recent period lifecycle spans
	// (TraceSpans), held in place with its storage allocated once at
	// Subscribe; the zero ring under WithTraceDepth(0), which drops only this
	// ring, not the span each period still publishes. Under q's lock: serve
	// records into it and TraceSpans snapshots it, so the ring needs no lock
	// of its own.
	// lastArmedNS is the wall time this subscription's schedule entry was
	// last re-armed — the end of the previous period's evaluation, or the
	// Subscribe instant — giving each span its armed→popped scheduler wait.
	// Written only from step (serialized per subscription) and Subscribe
	// (before the subscription is visible to Advance).
	trace       obs.TraceRing
	lastArmedNS int64

	// The mutable session state, under q's lock. It is per-subscription so
	// one user's waypoint updates, stats reads, and deliveries never contend
	// with another's, and none of them block the service registry lock.
	// serve holds it once per period, from the closed check to the send, so
	// a period is either not evaluated or handed over — and Close, Stats
	// and UpdateWaypoint wait for one evaluation at most.
	manual   *Point // set by UpdateWaypoint; overrides src from then on
	manualAt time.Duration
	closed   bool
	stats    SubscriptionStats
	// stopCtx detaches the subscription from the Subscribe context; nil when
	// that context can't end, or has ended already.
	stopCtx func() bool
}

// Subscribe registers a streaming query for a mobile user whose position
// follows src, starting periods at the service's current virtual time. The
// user joins a live service: existing subscribers are unaffected. The
// subscription ends when ctx is canceled, Close is called, the service
// closes, or the spec's Lifetime elapses.
func (s *Service) Subscribe(ctx context.Context, spec QuerySpec, src MotionSource) (*Subscription, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("mobiquery: subscription needs a MotionSource")
	}
	agg := spec.Aggregate
	if agg == 0 {
		agg = Avg
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("mobiquery: service is closed")
	}
	if s.draining {
		return nil, fmt.Errorf("mobiquery: service is draining")
	}
	s.nextID++
	sub := &Subscription{
		svc:     s,
		id:      s.nextID,
		spec:    spec,
		src:     src,
		t0:      s.now,
		agg:     agg,
		results: make(chan QueryResult, s.opts.buffer),
		trace:   obs.NewTraceRing(s.opts.traceDepth),
	}
	sub.lastArmedNS = time.Now().UnixNano()
	var err error
	if !spec.Strategy.Prefetching() && (spec.Window > 1 || spec.Radius >= pyramidMinRadiusCells*s.cell) {
		// On-demand subscriptions with large areas (or lookback windows,
		// whose every result re-folds Window boundaries) aggregate through
		// the shared tile pyramid of their boundary class. Small areas keep
		// the flat scan: a handful of cells beats an epoch ingest.
		if sub.pyramid, err = s.pyramidFor(spec.Period, spec.Freshness); err != nil {
			return nil, err
		}
	}
	pos := src.PositionAt(0)
	if err := s.engine.RegisterQuery(&sub.q, sub.id, spec.Radius, pos,
		core.TemporalSpec{Period: spec.Period, Deadline: spec.Deadline, Fresh: spec.Freshness, Window: spec.Window}, s.now, sub); err != nil {
		return nil, err
	}
	if err := sub.attach(pos); err != nil {
		sub.q.Deregister()
		return nil, err
	}
	s.totOpened.Add(1)

	if ctx != nil && ctx.Done() != nil {
		// No watcher goroutine: the context runs Close itself when it ends,
		// and close() detaches it when the subscription ends first. A context
		// that has ended already may run Close before stop is stored; close()
		// then finds nothing to detach, which is right.
		stop := context.AfterFunc(ctx, func() { sub.Close() })
		sub.q.Lock()
		sub.stopCtx = stop
		sub.q.Unlock()
	}
	return sub, nil
}

// ID returns the subscription's query id within the service.
func (sub *Subscription) ID() uint32 { return sub.id }

// Results is the stream of per-period query results. It is closed when
// the subscription ends; a subscriber that stops draining loses newest
// results (counted in Stats().Dropped) but never stalls the service.
func (sub *Subscription) Results() <-chan QueryResult { return sub.results }

// Spec returns the subscription's query specification.
func (sub *Subscription) Spec() QuerySpec { return sub.spec }

// UpdateWaypoint reports the user's actual position mid-run, overriding
// the MotionSource from this moment on (the source is a prediction; the
// waypoint is ground truth). Subsequent periods are evaluated at the
// updated position until the next update. A prefetching subscription
// re-plans from the reported position: chains are re-dispatched along the
// corrected path and the equation-16 warmup clock restarts, so the next
// few results carry Warmup=true — the paper's cost of a motion change.
// The new plan is a straight line from p at the velocity since the previous
// update or, lacking one, the motion source's local direction.
func (sub *Subscription) UpdateWaypoint(p Point) error {
	now, period := sub.svc.Now(), sub.spec.Period
	var vel geom.Vec
	if sub.planner != nil {
		sub.q.Lock()
		closed, prev, prevAt := sub.closed, sub.manual, sub.manualAt
		sub.q.Unlock()
		switch {
		case closed: // reported under the hold below
		case prev != nil && now > prevAt:
			vel = p.Sub(*prev).Scale(1 / (now - prevAt).Seconds())
		default:
			// The source is the caller's code: read outside the hold.
			rel := now - sub.t0
			vel = sub.src.PositionAt(rel + period).Sub(sub.src.PositionAt(rel)).Scale(1 / period.Seconds())
		}
	}
	sub.q.Lock()
	defer sub.q.Unlock()
	if sub.closed {
		return fmt.Errorf("mobiquery: subscription %d is closed", sub.id)
	}
	if sub.planner != nil {
		sub.replan(lineProfile(p, vel, now, period), now)
	}
	sub.manual = &p
	sub.manualAt = now
	return nil
}

// PrefetchStats returns the prefetch planner's ledger, including the
// corridor cache's hit/mispredict counters when the spec asked for a
// corridor and the chains outstanding at the last evaluated boundary; ok is
// false for on-demand subscriptions, which have no planner.
func (sub *Subscription) PrefetchStats() (PrefetchStats, bool) {
	// Under the query lock: serve settles each period's boundary under it.
	sub.q.Lock()
	defer sub.q.Unlock()
	if sub.planner == nil {
		return PrefetchStats{}, false
	}
	st := sub.planner.Stats()
	st.Outstanding = sub.planner.Outstanding(sub.lastAt)
	if sub.cache != nil {
		cs := sub.cache.Stats()
		st.CorridorHits = cs.Hits
		st.CorridorMisses = cs.Misses
		st.CorridorMispredicts = cs.Mispredicts
		st.CorridorStaged = cs.StagedBoundaries
	}
	return st, true
}

// Stats returns the subscription's delivery ledger so far.
func (sub *Subscription) Stats() SubscriptionStats {
	// Under the query lock, which also covers each evaluation's advance of
	// the period counter.
	sub.q.Lock()
	defer sub.q.Unlock()
	st := sub.stats
	st.NextPeriod, _ = sub.q.NextDue()
	return st
}

// Close ends the subscription: the user leaves the service, the engine
// frees the query, and the Results channel is closed after any buffered
// results. Other subscribers are unaffected. Close is idempotent.
func (sub *Subscription) Close() error {
	sub.close()
	return nil
}

// close tears the subscription down: marks it closed, ends the result
// stream, and deregisters the engine query — which is what removes it from
// the service. Idempotent, and safe from any goroutine.
func (sub *Subscription) close() {
	sub.q.Lock()
	if sub.closed {
		sub.q.Unlock()
		return
	}
	sub.closed = true
	// Closed under the lock: serve sends under it too, so a racing Advance
	// can never write to a closed channel.
	close(sub.results)
	stop := sub.stopCtx
	sub.q.Unlock()
	if stop != nil {
		stop()
	}
	sub.svc.totClosed.Add(1)
	sub.q.Deregister()
}

// step serves every period of this subscription due by virtual time now,
// each in one pass — evaluate, stamp, hand over — and ends the stream right
// behind its last result when the spec's Lifetime runs out. It runs to
// completion on the dispatch worker that was handed the popped subscription
// and touches only this subscription's engine query and session state, so
// distinct subscriptions proceed in parallel and no period waits for
// another subscription's. Schedule re-arms go into the worker's lane l,
// which Advance flushes after the fan-out: delivery precedes the flush, and
// a receiver that closes on receipt spends the handle, so its batched
// re-arm is declined (Schedule.Remove). The period's counts and span go
// into l as well, folded into the service's by Advance.
// poppedNS is the wall time the Advance step's PopDue completed — the
// popped stamp shared by the first span of each subscription in the
// batch; catch-up periods armed mid-drain stamp their own arming instant
// instead, keeping every span chain monotone.
func (sub *Subscription) step(now time.Duration, poppedNS int64, l *lane) {
	for {
		_, due := sub.q.NextDue()
		// The lifetime check precedes the due check: it depends only on
		// the period index, so a session whose clock stops exactly at
		// t0+Lifetime still closes its stream after the final result.
		if sub.spec.Lifetime > 0 && due > sub.t0+sub.spec.Lifetime {
			sub.close()
			return
		}
		if due > now {
			return
		}
		// The waypoint is evaluated as of the period boundary, so coarse
		// clock steps still see the position the user held at the
		// deadline. The source is the caller's code: read outside the hold.
		if !sub.serve(due, sub.src.PositionAt(due-sub.t0), now, poppedNS, l) {
			return
		}
	}
}

// serve is one period under one hold of the query's lock, the session's only
// one: unless the subscription has closed, install the predictions delivered
// by due (before), evaluate the due period at pos (or at the UpdateWaypoint
// override), count it by serve class, complete its lifecycle span, and hand
// the result to the subscriber — or, when the buffer is full, discard it and
// count it in Stats().Dropped rather than stalling the service. The span is
// recorded in the subscription's trace ring, queued in the worker's lane for
// the service span firehose, and — for a traced subscription — attached to
// the result so the network front-end can echo it to the client. Everything
// serve counts goes to the lane l, not to memory another worker writes. It
// reports whether a period was served.
func (sub *Subscription) serve(due time.Duration, pos Point, now time.Duration, poppedNS int64, l *lane) bool {
	sub.q.Lock()
	defer sub.q.Unlock()
	if sub.closed {
		return false
	}
	sub.before(due)
	if sub.manual != nil {
		pos = *sub.manual
	}
	evalStartNS := time.Now().UnixNano()
	wr, ok := sub.q.EvaluateDueAt(pos, now, l.rb)
	evalEndNS := time.Now().UnixNano()
	if !ok {
		return false
	}
	// The serve classes partition evaluated periods, so the per-class
	// counters sum to the delivery ledger (delivered + dropped) and to the
	// spans published, at rest and under churn.
	class := sub.after(&wr, pos)
	l.periods[class]++
	l.eval[class].Observe(evalEndNS - evalStartNS)
	// A catch-up period (armed by the previous iteration of this very
	// drain, after the batch pop) never went back to the scheduler: its
	// logical pop instant is its armed instant, not the batch pop stamp
	// taken before the period existed — keeping armed <= popped and its
	// scheduler-wait segment honestly zero.
	span := obs.PeriodSpan{
		Trace:       sub.spec.Trace,
		K:           wr.K,
		Due:         wr.Due,
		ArmedNS:     sub.lastArmedNS,
		PoppedNS:    max(poppedNS, sub.lastArmedNS),
		EvalStartNS: evalStartNS,
		EvalEndNS:   evalEndNS,
		FlushNS:     evalEndNS,
		Class:       class,
		Late:        wr.Late,
		Outcome:     obs.OutcomeDelivered,
	}
	// The evaluation just re-armed the schedule at the next boundary;
	// that instant is the next span's armed stamp.
	sub.lastArmedNS = evalEndNS

	r := sub.makeResult(wr)
	if !r.OnTime {
		sub.stats.Late++
		l.late++
	}
	// The delivery stamp precedes the channel send so a traced result's
	// echoed span already carries it. A traced subscription's span carries
	// its wire identity — the client-minted trace id plus the deterministic
	// per-period span id both tiers can recompute (obs.MintSpanID) — and the
	// heap copy is per traced period: untraced subscriptions keep the
	// allocation-free path.
	span.DeliveredNS = time.Now().UnixNano()
	if span.Trace != 0 {
		span.Span = obs.MintSpanID(span.Trace, wr.K)
		sp := new(obs.PeriodSpan)
		*sp = span
		r.Trace = sp
	}
	select {
	case sub.results <- r:
		sub.stats.Delivered++
		l.delivered++
	default:
		span.Outcome = obs.OutcomeDropped
		sub.stats.Dropped++
		l.dropped++
	}
	sub.trace.Record(&span)
	l.queue(&span)
	return true
}

// attach wires the engine query's hooks, once, after Subscribe registered
// it at pos. A prefetching spec plans from a prediction: a ProfileSource's
// own stream (times shifted onto the service clock), bootstrapped from a
// stationary guess until its first delivery and starting from whatever the
// stream has delivered by t0; otherwise an exact profile synthesized from the
// motion source. On error q is left unwired.
func (sub *Subscription) attach(pos Point) error {
	s, spec := sub.svc, sub.spec
	sub.lastPos, sub.lastAt = pos, sub.t0
	if spec.Strategy.Prefetching() {
		var profile mobility.Profile
		if ps, ok := sub.src.(ProfileSource); ok {
			for _, tp := range ps.predictedProfiles() {
				sub.stream = append(sub.stream, mobility.TimedProfile{
					Deliver: tp.Deliver + sub.t0,
					Profile: shiftProfile(tp.Profile, sub.t0),
				})
			}
			profile = bootstrapProfile(pos, sub.t0)
		} else {
			profile = profileFromSource(sub.src, sub.t0, spec.Period)
		}
		for sub.next < len(sub.stream) && sub.stream[sub.next].Deliver <= sub.t0 {
			profile = sub.stream[sub.next].Profile
			sub.next++
		}
		var err error
		sub.planner, err = prefetch.NewPlanner(prefetch.Config{
			Strategy: spec.Strategy,
			Radius:   spec.Radius,
			Period:   spec.Period,
			Deadline: spec.Deadline,
			Fresh:    spec.Freshness,
			Sleep:    s.cfg.SamplePeriod,
			T0:       sub.t0,
		}, profile)
		if err != nil {
			return err
		}
		if spec.Corridor.Lookahead > 0 {
			sub.cache, err = corridor.NewCache(corridor.Config{
				Lookahead: spec.Corridor.Lookahead,
				Model:     spec.Corridor.ErrorModel,
				Radius:    spec.Radius,
				Period:    spec.Period,
				T0:        sub.t0,
			}, s.engine.Index())
			if err != nil {
				return err
			}
			sub.cache.SetProfile(profile, sub.t0)
			sub.q.SetWarmer(sub.cache)
		}
		sub.q.SetSampler(sub.planner.Sampler(s.sample))
		sub.q.SetPlan(sub.planner)
	}
	if sub.pyramid != nil {
		sub.q.SetAggIndex(sub.pyramid)
	}
	return nil
}

// before prepares the boundary at due, under q's lock: predictions delivered
// by then govern its plan and corridor, so each is installed, once and in
// delivery order. The boundary's pyramid epoch is Advance's to ingest, before
// the fan-out.
func (sub *Subscription) before(due time.Duration) {
	for sub.next < len(sub.stream) && sub.stream[sub.next].Deliver <= due {
		tp := sub.stream[sub.next]
		sub.next++
		sub.replan(tp.Profile, tp.Deliver)
	}
}

// after settles the period just evaluated at ground-truth position pos,
// under q's lock: it classifies the serve (the classes partition evaluated
// periods) and credits the plan with the prefetched readings served. With a
// corridor it then takes a mispredict — an actual position outside the
// corridor already cost the period its warm serve and staging credit, the
// evaluation having run cold with honest accounting — re-planning at once
// along the line through the last two observed positions; and it tops the
// staged window up relative to the boundary just collected, so boundary
// k+1's snapshot is cut ahead of its due time whatever the tick coarseness.
func (sub *Subscription) after(wr *core.WindowResult, pos Point) (class obs.Class) {
	switch {
	case wr.PyramidHit:
		class = obs.ClassPyramid
	case wr.CorridorHit:
		class = obs.ClassCorridor
	case sub.planner != nil:
		class = obs.ClassPlanned
	}
	if sub.planner != nil {
		sub.planner.NoteServed(wr.Prefetched)
	}
	if sub.cache != nil {
		if at, actual, ok := sub.cache.TakeMispredict(); ok {
			var vel geom.Vec
			if at > sub.lastAt {
				vel = actual.Sub(sub.lastPos).Scale(1 / (at - sub.lastAt).Seconds())
			}
			sub.replan(lineProfile(actual, vel, at, sub.spec.Period), at)
		}
		sub.cache.StageThrough(wr.Due)
	}
	sub.lastPos, sub.lastAt = pos, wr.Due
	return class
}

// replan replaces a planned subscription's governing prediction at virtual
// time at (a delivered profile, a mispredict correction, a reported
// waypoint): chains are re-dispatched, the equation-16 warmup clock restarts
// and the corridor is re-swept. Caller holds q's lock.
func (sub *Subscription) replan(profile mobility.Profile, at time.Duration) {
	sub.planner.Replan(profile, at)
	if sub.cache != nil {
		sub.cache.SetProfile(profile, at)
	}
}

// makeResult converts one engine window evaluation into the public
// per-period result.
func (sub *Subscription) makeResult(wr core.WindowResult) QueryResult {
	qr := QueryResult{
		K:               wr.K,
		Deadline:        wr.Due,
		Received:        true,
		OnTime:          !wr.Late,
		Value:           wr.Data.Value(sub.agg),
		Contributors:    wr.Data.Count,
		AreaNodes:       wr.AreaNodes,
		EvaluatedAt:     wr.EvaluatedAt,
		Lateness:        wr.Lateness,
		StaleNodes:      wr.StaleNodes,
		MaxStaleness:    wr.MaxStaleness,
		Warmup:          wr.Warmup,
		PrefetchedNodes: wr.Prefetched,
		CorridorHit:     wr.CorridorHit,
		PyramidHit:      wr.PyramidHit,
		WindowPeriods:   wr.WindowPeriods,
	}
	if wr.AreaNodes > 0 {
		qr.Fidelity = float64(wr.Data.Count) / float64(wr.AreaNodes)
	} else {
		qr.Fidelity = 1 // empty area: vacuously perfect
	}
	qr.Success = qr.OnTime && qr.Fidelity >= SuccessThreshold
	return qr
}

// TraceSpans appends the subscription's recent period lifecycle spans to
// buf, oldest first, and returns the result: one span per evaluated period
// still in the trace ring, stamped armed → popped → evaluated →
// delivered/dropped with its serve class. The ring keeps the last
// WithTraceDepth spans (default 16); with tracing disabled it is always
// empty. Safe for concurrent use with a running service: it copies under
// the query lock, which each period records under, so it waits for one
// period's serve at most and never sees a span half-written.
func (sub *Subscription) TraceSpans(buf []PeriodSpan) []PeriodSpan {
	sub.q.Lock()
	defer sub.q.Unlock()
	return sub.trace.Snapshot(buf)
}
