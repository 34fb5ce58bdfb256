package core

import (
	"fmt"
	"math"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// Sampler reports when node id most recently refreshed its reading at or
// before virtual time at; ok is false when the node has not sampled yet.
// It models the duty-cycled sampling schedule of the sensor field: under
// PSM a node's reading is only as fresh as its last wake-up, which is what
// the paper's Tfresh window is measured against. A Sampler must be pure
// (same arguments, same answer) and safe for concurrent use.
type Sampler func(id int32, at sim.Time) (sim.Time, bool)

// AreaSampler is the per-query form of Sampler used by prefetch-planned
// queries: it additionally sees the node's position — so a plan can decide
// whether the node falls inside a predicted pickup area — and reports
// whether the reading it served came from the prefetch plan rather than
// the node sampling schedule. Like Sampler it must be pure; the engine calls
// it only under its query's lock, so it need not be safe for concurrent use.
type AreaSampler func(id int32, pos geom.Point, at sim.Time) (t sim.Time, ok bool, prefetched bool)

// PrefetchPlan is what a temporal query consults about its prefetch state;
// internal/prefetch.Planner implements it. A nil plan (the default) keeps
// the on-demand behavior exactly.
type PrefetchPlan interface {
	// PeriodStatus returns the plan's view of the period due at `due`, as
	// one snapshot (the engine calls it under the query's lock, which the
	// owner holds to re-plan too): ready is when the prefetched
	// answer was staged at the user's pickup point (meaningful only when
	// staged is true); warmup marks a covered period whose chain missed
	// its forward deadline, which the evaluation then serves on-demand.
	PeriodStatus(due sim.Time) (ready sim.Time, staged, warmup bool)
}

// CorridorWarmer is the spatial companion of PrefetchPlan: it holds
// pre-staged node snapshots along the user's predicted corridor;
// internal/corridor.Cache implements it. A nil warmer (the default) keeps
// the cold grid scan exactly.
type CorridorWarmer interface {
	// VisitStaged streams the staged nodes of the boundary due at `due`
	// that fall inside the actual query circle (center, radius), in
	// canonical grid order (geom.ShardedGrid.VisitWithin), and reports true
	// — or reports false without calling fn when the boundary must be
	// served by the cold radius scan (nothing staged, or the actual position
	// outside the staged corridor — a mispredict the warmer records). A true
	// return must enumerate exactly the sequence the cold scan would: the
	// engine folds the period from this buffer in visit order, so warm
	// equals cold bit for bit.
	VisitStaged(due sim.Time, center geom.Point, radius float64, fn func(id int32, pos geom.Point)) bool
}

// Area is the freshness-windowed aggregate of a disk, or of a part of one:
// the partial over its fresh readings plus the node accounting a cold scan
// keeps. The cold scan, the window ring and the pyramid's tiles all keep
// one. Data is meaningful only while Data.Count > 0, so the zero value is an
// empty part.
type Area struct {
	// Data aggregates the fresh in-area readings.
	Data Partial
	// AreaNodes counts every in-area node; StaleNodes those excluded for
	// missing the freshness window.
	AreaNodes  int
	StaleNodes int
	// MaxStaleness is the age at the boundary of the oldest contributing
	// reading.
	MaxStaleness time.Duration
}

// NewArea returns an empty area to fold into.
func NewArea() Area { return Area{Data: NewPartial()} }

// Fold adds one in-area node whose reading is r, under freshness window
// fresh, and reports whether the reading contributed to Data.
func (a *Area) Fold(r Reading, fresh time.Duration) bool {
	a.AreaNodes++
	if !r.Fresh(fresh) {
		a.StaleNodes++
		return false
	}
	a.Data.Add(r.V)
	if r.Age > a.MaxStaleness {
		a.MaxStaleness = r.Age
	}
	return true
}

// Merge folds part b into a, b's readings aged by age more than b recorded
// them (zero for parts of the same boundary). A part with no contributing
// reading adds only its node counts: its Min, Max and staleness mean nothing.
func (a *Area) Merge(b *Area, age time.Duration) {
	a.AreaNodes += b.AreaNodes
	a.StaleNodes += b.StaleNodes
	if b.Data.Count == 0 {
		return
	}
	a.Data.Merge(b.Data)
	if s := b.MaxStaleness + age; s > a.MaxStaleness {
		a.MaxStaleness = s
	}
}

// AggIndex is the aggregate-index hook of a temporal query:
// internal/pyramid.Pyramid implements it. ServeWindow answers the whole
// freshness-windowed disk Area at a period boundary, merged from
// precomputed multiresolution tile Areas, or reports ok=false when it
// cannot prove the answer equals the cold radius scan — no epoch ingested
// for this boundary, or a freshness window it was not built under. A true
// return must account exactly the member set the cold scan would: same
// in-area nodes, same freshness decisions, same Count/Min/Max bit for bit
// (Sum is folded in the index's deterministic tile-major order, which
// differs from the cold scan's canonical grid order only by float-addition
// grouping). A nil index (the default) keeps the cold path exactly.
type AggIndex interface {
	ServeWindow(due sim.Time, center geom.Point, radius float64, fresh time.Duration) (Area, bool)
}

// TemporalSpec is the temporal contract of a streaming query: one result
// per Period, due Deadline after each period boundary, computed from
// readings no staler than Fresh at the boundary. It is the engine-level
// counterpart of the paper's (Tperiod, Td, Tfresh) triple for queries
// evaluated through the engine rather than the radio stack.
type TemporalSpec struct {
	// Period is Tperiod: one result is due every Period.
	Period time.Duration
	// Deadline is the slack after a period boundary before the result
	// counts as late. Zero means strict: any evaluation after the boundary
	// is late.
	Deadline time.Duration
	// Fresh is Tfresh: readings older than this at the period boundary are
	// excluded from the result. Zero disables the window (any reading
	// qualifies, however old).
	Fresh time.Duration
	// Window is the number of consecutive period boundaries each result
	// aggregates over: every delivered result merges the last Window
	// periods' evaluations (each at its own boundary position), oldest
	// first. 0 or 1 keeps plain per-period results.
	Window int
}

// Validate reports specification errors.
func (ts TemporalSpec) Validate() error {
	switch {
	case ts.Period <= 0:
		return fmt.Errorf("core: temporal period %v must be positive", ts.Period)
	case ts.Deadline < 0:
		return fmt.Errorf("core: temporal deadline slack %v must be non-negative", ts.Deadline)
	case ts.Fresh < 0:
		return fmt.Errorf("core: freshness window %v must be non-negative", ts.Fresh)
	case ts.Window < 0:
		return fmt.Errorf("core: aggregation window %d must be non-negative", ts.Window)
	}
	return nil
}

// windowPeriod is one single-period evaluation retained for N-period
// window merging.
type windowPeriod struct {
	due        sim.Time
	area       Area
	prefetched int
}

// WindowResult is one period's freshness-windowed evaluation. Data covers
// only the fresh contributors; stale in-area nodes are counted but excluded
// from the aggregate. Contributors are folded in canonical grid order and
// never listed: Data.Count is their number.
type WindowResult struct {
	// Area is the period's aggregate, its staleness measured at Due.
	Area
	// K is the 1-based period index; the result was due at Due and
	// actually evaluated at EvaluatedAt.
	K           int
	Due         sim.Time
	EvaluatedAt sim.Time
	// Late reports EvaluatedAt > Due + spec.Deadline; Lateness is then
	// EvaluatedAt - Due (zero when on time).
	Late     bool
	Lateness time.Duration
	// Prefetched counts contributing readings served from the query's
	// prefetch plan rather than the node sampling schedule; Warmup marks a
	// period inside the plan's equation-16 warmup interval. Both stay zero
	// for queries without a plan.
	Prefetched int
	Warmup     bool
	// CorridorHit reports the period's node enumeration was served from the
	// query's corridor warmer (a warm, pre-staged buffer) rather than a
	// cold grid radius scan. The result values are identical either way;
	// only the evaluation cost differs. Always false without a warmer.
	CorridorHit bool
	// PyramidHit reports the period's aggregate was served from the query's
	// aggregate index (SetQueryAggIndex) instead of a cold radius scan.
	// Values and accounting are identical either way. Always false without
	// an index.
	PyramidHit bool
	// WindowPeriods is how many period boundaries the result aggregates
	// over (spec.Window at steady state, ramping up from 1 at session
	// start); zero for plain per-period queries.
	WindowPeriods int
}

// ScheduleSampler builds the standard periodic sampling schedule: node id
// samples at phase(id) + n*period for n >= 0, so its latest reading at
// time `at` was taken at the last such instant, and before its first
// sample the node has no reading at all. phase must be pure and return
// values in [0, period). It panics on a non-positive period, which would
// otherwise divide by zero inside the first evaluation, on a pool worker.
func ScheduleSampler(period time.Duration, phase func(id int32) sim.Time) Sampler {
	if period <= 0 {
		panic(fmt.Sprintf("core: sampling period %v must be positive", period))
	}
	return func(id int32, at sim.Time) (sim.Time, bool) {
		ph := phase(id)
		if at < ph {
			return 0, false
		}
		return ph + (at-ph)/period*period, true
	}
}

// Reading is one node's reading as of one period boundary: the value V it
// sampled, Age before the boundary. It depends on the node, its position and
// the boundary alone, so every query that covers the node then can share it.
type Reading struct {
	Age time.Duration
	V   float64
}

// NoReading is the Age of a node that had not sampled by the boundary.
const NoReading = time.Duration(math.MaxInt64)

// Fresh reports whether r contributes under freshness window fresh (zero
// disables the window, as in TemporalSpec).
func (r Reading) Fresh(fresh time.Duration) bool {
	return r.Age != NoReading && (fresh <= 0 || r.Age <= fresh)
}

// ReadingAt derives node id's reading at boundary due under sampling
// schedule s (nil: the node samples at the boundary itself). It is the one
// definition of a reading — the direct fold, the reading column and the
// pyramid's ingest and fringe all call it, so they agree to the bit. A
// positive fresh is the only window the caller will test the reading
// against: one staler than that is left with V zero, unsampled.
func ReadingAt(s Sampler, fld field.Field, id int32, pos geom.Point, due sim.Time, fresh time.Duration) Reading {
	sample, ok := due, true
	if s != nil {
		sample, ok = s(id, due)
	}
	return readingOf(fld, pos, due, fresh, sample, ok)
}

// readingOf is ReadingAt after the sampler call, which a per-query
// AreaSampler makes with its own signature.
func readingOf(fld field.Field, pos geom.Point, due sim.Time, fresh time.Duration, sample sim.Time, ok bool) Reading {
	r := Reading{Age: due - sample}
	switch {
	case !ok || r.Age < 0:
		r.Age = NoReading
	case fresh <= 0 || r.Age <= fresh:
		r.V = fld.Sample(pos, sample)
	}
	return r
}

// SetSampler installs the node sampling schedule used by windowed
// evaluation. A nil sampler (the default) means every node samples at the
// period boundary itself. Must be called before any evaluation starts; it is
// not synchronized with concurrent evaluations.
func (e *QueryEngine) SetSampler(s Sampler) { e.sampler = s }

// SetSampler installs a per-query sampler, overriding the engine-global
// Sampler for this query's windowed evaluations — this is how a prefetch
// planner feeds planned readings into evaluation. Safe to call concurrently
// with evaluations: the new sampler takes effect from the next period.
func (q *Query) SetSampler(s AreaSampler) {
	q.mu.Lock()
	q.sampler = s
	q.offColumn.Store(s != nil || q.aggIndex != nil)
	q.mu.Unlock()
}

// SetPlan attaches a prefetch plan: EvaluateDue then credits periods the
// plan staged by their boundary as evaluated at the boundary, and flags
// warmup periods.
func (q *Query) SetPlan(p PrefetchPlan) {
	q.mu.Lock()
	q.plan = p
	q.mu.Unlock()
}

// SetWarmer attaches a corridor warmer: windowed evaluations then ask it
// for a pre-staged node snapshot before falling back to the cold grid scan,
// and report warm serves in WindowResult.CorridorHit. A nil warmer (the
// default) keeps the cold path bit-identical.
func (q *Query) SetWarmer(w CorridorWarmer) {
	q.mu.Lock()
	q.warmer = w
	q.mu.Unlock()
}

// SetAggIndex attaches an aggregate index: windowed evaluations then ask it
// for the whole-disk aggregate before falling back to the cold radius scan
// (or the corridor warmer, which takes precedence when both are attached),
// and report index serves in WindowResult.PyramidHit. The index is
// consulted only while the query has no per-query sampler: a prefetch
// planner's sampler serves plan-staged readings the index never ingested,
// so those queries always take their own path.
func (q *Query) SetAggIndex(ix AggIndex) {
	q.mu.Lock()
	q.aggIndex = ix
	q.offColumn.Store(ix != nil || q.sampler != nil)
	q.mu.Unlock()
}

// SetQuerySampler is Query.SetSampler by id; like its three siblings it
// reports whether the query exists.
func (e *QueryEngine) SetQuerySampler(queryID uint32, s AreaSampler) bool {
	return e.withQuery(queryID, func(q *Query) { q.SetSampler(s) })
}

// SetQueryPlan is Query.SetPlan by id.
func (e *QueryEngine) SetQueryPlan(queryID uint32, p PrefetchPlan) bool {
	return e.withQuery(queryID, func(q *Query) { q.SetPlan(p) })
}

// SetQueryWarmer is Query.SetWarmer by id.
func (e *QueryEngine) SetQueryWarmer(queryID uint32, w CorridorWarmer) bool {
	return e.withQuery(queryID, func(q *Query) { q.SetWarmer(w) })
}

// SetQueryAggIndex is Query.SetAggIndex by id.
func (e *QueryEngine) SetQueryAggIndex(queryID uint32, ix AggIndex) bool {
	return e.withQuery(queryID, func(q *Query) { q.SetAggIndex(ix) })
}

func (e *QueryEngine) withQuery(queryID uint32, fn func(*Query)) bool {
	q := e.Lookup(queryID)
	if q != nil {
		fn(q)
	}
	return q != nil
}

// RegisterQuery registers q — storage the caller owns, never registered
// before — as a live query: periods count from t0, the first result due at
// t0+Period, driven with NextDue/EvaluateDue. owner is what Query.Owner hands
// back from a popped schedule entry. QueryIDs must be unique and non-zero and
// radius positive; an id freed by Deregister may be registered again. Storage
// ever registered is refused: Schedule.Remove spent its handle for good, and a
// stale re-arm still carrying it must never reach a later registration made in
// the same memory.
func (e *QueryEngine) RegisterQuery(q *Query, queryID uint32, radius float64, pos geom.Point, spec TemporalSpec, t0 sim.Time, owner any) error {
	switch err := spec.Validate(); {
	case err != nil:
		return err
	case queryID == 0:
		return fmt.Errorf("core: query id must be non-zero")
	case radius <= 0:
		return fmt.Errorf("core: query radius must be positive")
	case q.eng != nil: // set here and never cleared
		return fmt.Errorf("core: query %d storage was already registered", queryID)
	}
	e.mu.Lock()
	if _, dup := e.queries[queryID]; dup {
		e.mu.Unlock()
		return fmt.Errorf("core: duplicate query id %d", queryID)
	}
	q.id, q.radius, q.eng, q.owner, q.spec, q.t0, q.pos = queryID, radius, e, owner, spec, t0, pos
	q.nextK.Store(1)
	e.queries[queryID] = q
	e.placed.Store(true)
	e.mu.Unlock()
	e.nq.Add(1)
	// Armed after the registry lock is released: a Deregister that finds q
	// first spends the handle, and the Upsert then declines.
	e.sched.Upsert(q, t0+spec.Period)
	return nil
}

// RegisterTemporalE is RegisterQuery into fresh storage, for callers that
// drive the query by id.
func (e *QueryEngine) RegisterTemporalE(queryID uint32, radius float64, pos geom.Point, spec TemporalSpec, t0 sim.Time) error {
	return e.RegisterQuery(new(Query), queryID, radius, pos, spec, t0, nil)
}

// NextDue is Query.NextDue by id. ok is false for unknown queries.
func (e *QueryEngine) NextDue(queryID uint32) (k int, due sim.Time, ok bool) {
	q := e.Lookup(queryID)
	if q == nil {
		return 0, 0, false
	}
	k, due = q.NextDue()
	return k, due, true
}

// NextDue returns the index and due time of the query's next unevaluated
// period. It takes no lock.
func (q *Query) NextDue() (k int, due sim.Time) {
	k = int(q.nextK.Load())
	return k, q.t0 + sim.Time(k)*q.spec.Period
}

// EvaluateDueBatch is Query.EvaluateDue by id; ok is also false when the
// query is unknown.
func (e *QueryEngine) EvaluateDueBatch(queryID uint32, now sim.Time, rb *RearmBatch) (WindowResult, bool) {
	q := e.Lookup(queryID)
	if q == nil {
		return WindowResult{}, false
	}
	return q.EvaluateDue(now, rb)
}

// EvaluateDue evaluates the query's next period if its boundary has been
// reached by now, and returns ok=false when it is not yet due. The result
// is computed as of the period boundary — waypoint as last set, readings
// as-of the boundary, freshness measured against it — while lateness
// compares now against the boundary plus the deadline slack. Calls for
// distinct queries proceed in parallel; calls for one query are serialized
// and advance its period counter exactly once each.
//
// The schedule is re-armed at the following boundary: at once when rb is
// nil, otherwise deferred into rb, which the driver flushes (FlushRearms)
// before the next PopDue that should see these boundaries.
// Until then the query is absent from the schedule, but NextDue — computed
// from the period counter — already reports the following boundary, so
// drain loops are unaffected.
func (q *Query) EvaluateDue(now sim.Time, rb *RearmBatch) (WindowResult, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.EvaluateDueAt(q.pos, now, rb)
}

// EvaluateDueAt moves the query center to pos, then is EvaluateDue with the
// caller holding the query's lock (Lock): a driver's whole period, inside the
// one hold that also covers its own session state.
func (q *Query) EvaluateDueAt(pos geom.Point, now sim.Time, rb *RearmBatch) (WindowResult, bool) {
	q.pos = pos
	e := q.eng
	k, due := q.NextDue()
	if due > now {
		return WindowResult{}, false
	}
	res := e.evaluateWindow(q, due)
	res.K = k
	res.Due = due
	res.EvaluatedAt = now
	if q.plan != nil {
		// A period the prefetch chain staged at the pickup point by its
		// boundary was materially available to the user then — the clock
		// tick that collects it merely relays a finished answer, so the
		// period is accounted as evaluated when it was staged, not when
		// the tick got to it. The credit requires the whole delivered
		// answer to have been staged: every contributing reading from the
		// plan (or a genuinely empty area). A partially mispredicted
		// pickup circle means the on-demand remainder only existed at the
		// tick, so the period keeps honest tick/lateness accounting, as do
		// unstaged (warmup) periods.
		ready, staged, warmup := q.plan.PeriodStatus(due)
		covered := res.Prefetched == res.Data.Count &&
			(res.Data.Count > 0 || res.AreaNodes == 0)
		if staged && ready <= now && covered {
			if ready < due {
				ready = due
			}
			res.EvaluatedAt = ready
		}
		res.Warmup = warmup
	}
	if res.EvaluatedAt > due+q.spec.Deadline {
		res.Late = true
		res.Lateness = res.EvaluatedAt - due
	}
	if q.spec.Window > 1 {
		res = q.mergeWindow(res)
	}
	q.nextK.Store(int64(k + 1))
	// Re-arm at the next boundary so PopDue keeps handing this query out
	// exactly when a period is due. A Deregister that raced this evaluation
	// has spent the handle, so neither path resurrects its entry; a
	// re-registration of the id is another handle with its own entry.
	next := due + q.spec.Period
	if rb != nil {
		rb.add(q, next)
	} else {
		e.sched.Upsert(q, next)
	}
	return res, true
}

// evaluateWindow computes the freshness-windowed area result of q as of
// the period boundary `due`. Caller holds q.mu. If PopDue built the boundary
// a reading column the nodes are folded through it — the same bits as
// deriving each reading, since the index is fixed. Two kinds of query fold
// through no column: one with its own sampler, because a prefetch plan's
// CaptureAt readings are per query, and one with an aggregate index, whose
// pyramid keeps the readings itself.
func (e *QueryEngine) evaluateWindow(q *Query, due sim.Time) WindowResult {
	if q.sampler == nil && q.aggIndex == nil {
		if c := e.column(due); c != nil {
			e.colScans.Add(1)
			return e.scanWindow(q, due, c.at)
		}
	}
	return e.scanWindow(q, due, nil)
}

// scanWindow is evaluateWindow over col, the boundary's readings by node id
// (nil: derive each reading directly). A corridor warmer, when attached,
// serves the boundary from its pre-staged snapshot whenever it can prove the
// snapshot is exact (covered and current); otherwise — and always without a
// warmer — the cold radius scan runs, bit-identical by contract. Either way
// each node is folded into the result as it is visited: the visit order is
// canonical by construction, so there is nothing to collect or sort. The
// warm path lives in its own function so the cold path's visit closure never
// escapes through the warmer interface: queries without a corridor pay
// nothing for its existence.
func (e *QueryEngine) scanWindow(q *Query, due sim.Time, col []Reading) WindowResult {
	if q.warmer != nil {
		if out, ok := e.evaluateWindowWarm(q, due, col); ok {
			return out
		}
	}
	if q.aggIndex != nil && q.sampler == nil {
		if out, ok := e.evaluateWindowAgg(q, due); ok {
			return out
		}
	}
	out := WindowResult{Area: NewArea()}
	e.grid.VisitWithin(q.pos, q.radius, func(id int32, pos geom.Point) {
		e.foldNode(q, due, col, &out, id, pos)
	})
	return out
}

// evaluateWindowWarm asks the query's corridor warmer for the boundary's
// staged snapshot; ok is false when the warmer declined (nothing staged, or
// a mispredict) and the caller must run the cold scan.
// Caller holds q.mu.
func (e *QueryEngine) evaluateWindowWarm(q *Query, due sim.Time, col []Reading) (WindowResult, bool) {
	out := WindowResult{Area: NewArea(), CorridorHit: true}
	if !q.warmer.VisitStaged(due, q.pos, q.radius, func(id int32, pos geom.Point) {
		e.foldNode(q, due, col, &out, id, pos)
	}) {
		return WindowResult{}, false
	}
	return out, true
}

// evaluateWindowAgg asks the query's aggregate index for the boundary's
// whole-disk aggregate; ok is false when the index declined (no epoch for
// the boundary, or freshness mismatch) and the caller must run the cold
// scan. Caller holds q.mu.
func (e *QueryEngine) evaluateWindowAgg(q *Query, due sim.Time) (WindowResult, bool) {
	a, ok := q.aggIndex.ServeWindow(due, q.pos, q.radius, q.spec.Fresh)
	if !ok {
		return WindowResult{}, false
	}
	return WindowResult{Area: a, PyramidHit: true}, true
}

// foldNode is the shared per-node body of a windowed evaluation: take the
// node's reading — from col when it holds the id, else derived directly —
// freshness-window it and fold it into the result. Caller holds q.mu.
func (e *QueryEngine) foldNode(q *Query, due sim.Time, col []Reading, out *WindowResult, id int32, pos geom.Point) {
	var r Reading
	prefetched := false
	switch {
	case uint(id) < uint(len(col)):
		r = col[id]
	case q.sampler != nil:
		var sample sim.Time
		var ok bool
		sample, ok, prefetched = q.sampler(id, pos, due)
		r = readingOf(e.fld, pos, due, q.spec.Fresh, sample, ok)
	default:
		r = ReadingAt(e.sampler, e.fld, id, pos, due, q.spec.Fresh)
	}
	if out.Area.Fold(r, q.spec.Fresh) && prefetched {
		out.Prefetched++
	}
}

// mergeWindow folds the current single-period evaluation into the query's
// N-period ring and returns the windowed result: the last spec.Window
// periods' aggregates merged oldest first (each period was evaluated at its
// own boundary position), with summed node accounting and staleness
// re-aged to the current boundary. The current period's timing fields
// (Due, EvaluatedAt, Late, PyramidHit, ...) are kept: the window is a data
// aggregate, not a delivery contract. Caller holds q.mu.
func (q *Query) mergeWindow(cur WindowResult) WindowResult {
	w := q.spec.Window
	if q.winRing == nil {
		q.winRing = make([]windowPeriod, w)
	}
	e := &q.winRing[q.winNext]
	q.winNext = (q.winNext + 1) % int32(w)
	if int(q.winLen) < w {
		q.winLen++
	}
	e.due, e.area, e.prefetched = cur.Due, cur.Area, cur.Prefetched

	out := cur
	out.Area, out.Prefetched = NewArea(), 0
	for i := 0; i < int(q.winLen); i++ {
		p := &q.winRing[(int(q.winNext)+w-int(q.winLen)+i)%w]
		// A reading's age grows with every boundary it is carried across:
		// re-age each period's staleness to the current due.
		out.Area.Merge(&p.area, time.Duration(cur.Due-p.due))
		out.Prefetched += p.prefetched
	}
	out.WindowPeriods = int(q.winLen)
	return out
}
