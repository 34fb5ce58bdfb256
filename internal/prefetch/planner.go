package prefetch

import (
	"fmt"
	"math"
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

// DefaultPrefetchSpeed is the Section 5.2 vprfh estimate for MICA2-class
// hardware (100 m pickup spacing, 5 hops, 60-byte messages, 5 kbit/s
// effective bandwidth): roughly 208 m/s, far above any mobile user. It is
// the prefetch speed of every planner's equation-16 warmup bound, whose
// user speed is read off the motion profile.
var DefaultPrefetchSpeed = analysis.PrefetchSpeed(100, 5, 60, 5000)

// Config fixes the quantities a Planner needs: the subscription's temporal
// contract, the field's duty cycle, and the strategy.
type Config struct {
	// Strategy selects how far ahead chains are dispatched.
	Strategy Strategy
	// Radius is the query radius Rq: a prefetched reading is served only to
	// evaluations of nodes inside the predicted circle of this radius.
	Radius float64
	// Period, Deadline, and Fresh are the subscription's temporal contract
	// (Tperiod, the deadline slack, Tfresh).
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration
	// Sleep is the sensor duty-cycle period (Tsleep): how long a sleeping
	// node may take to act on a prefetch message. The session service uses
	// its NetworkConfig.SamplePeriod.
	Sleep time.Duration
	// T0 is the subscription epoch: period k comes due at T0 + k*Period.
	T0 sim.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	switch {
	case !c.Strategy.Prefetching():
		return fmt.Errorf("prefetch: a planner needs a prefetching strategy, not %v", c.Strategy)
	case c.Radius <= 0:
		return fmt.Errorf("prefetch: radius %v must be positive", c.Radius)
	case c.Period <= 0:
		return fmt.Errorf("prefetch: period %v must be positive", c.Period)
	case c.Deadline < 0 || c.Fresh < 0 || c.Sleep < 0:
		return fmt.Errorf("prefetch: deadline, freshness, and sleep must be non-negative")
	}
	return nil
}

// holdBound is the equation-10 margin Tsleep + 2*Tfresh: the slack the
// forward time reserves for waking a node and collecting its reading, and
// therefore the longest a prefetched reading may be held before the
// boundary it serves.
func (c Config) holdBound() time.Duration { return c.Sleep + 2*c.Fresh }

// normalized fills Greedy's derived default, its minimal safe lookahead
// ceil((Tsleep+2*Tfresh)/Tperiod)+1 — one more than the equation-12 storage
// constant, the smallest window that still meets every equation-10 forward
// deadline.
func (c Config) normalized() Config {
	if c.Strategy.Kind == Greedy && c.Strategy.Lookahead == 0 {
		q := analysis.QueryParams{Period: c.Period, Fresh: c.Fresh, Sleep: c.Sleep}
		c.Strategy.Lookahead = analysis.StorageJIT(q)
	}
	return c
}

// Entry is one period's plan: where the query area will be, when the chain
// serving it is dispatched and captures its readings, and the hold-time
// ledger bounding how long those readings may be served.
type Entry struct {
	// Center is the predicted pickup point: the profile's position at the
	// period's boundary.
	Center geom.Point
	// LaunchAt is when the chain for this period is dispatched; OnTime
	// reports that it met the equation-10 forward deadline
	// (k-1)*Tperiod - Tsleep - 2*Tfresh, so the answer is staged at the
	// pickup point by the boundary.
	LaunchAt sim.Time
	OnTime   bool
	// CaptureAt is when the in-area nodes take the reading served for this
	// period: the boundary under JIT, the opening of the freshness window
	// under Greedy. HoldUntil = CaptureAt + Tsleep + 2*Tfresh is the
	// equation-10 ledger: past it the prefetched reading may not be served.
	CaptureAt sim.Time
	HoldUntil sim.Time
}

// Planner is one subscription's prefetch plan: a pure function of the
// governing motion profile, the plan epoch (when that profile arrived), and
// the configuration — so the same subscribe/replan/advance sequence always
// yields the same plans regardless of worker count. A Planner is not safe
// for concurrent use: the owning Subscription calls every method under its
// query lock.
type Planner struct {
	cfg    Config
	served int64

	// memo caches the most recently resolved boundary: windowed evaluation
	// asks for the same boundary once per in-area node, so one computation
	// serves the whole visit. Replan invalidates it.
	memo entryMemo

	profile     mobility.Profile
	epoch       sim.Time
	warmupUntil sim.Time
	replans     int
}

// entryMemo is the costly half of one boundary's Entry — the predicted
// pickup point and the chain's launch — from which the rest follows in a few
// additions. ok is false outside the plan's coverage; valid is false until
// the first lookup and after a Replan.
type entryMemo struct {
	due, launch       sim.Time
	center            geom.Point
	onTime, ok, valid bool
}

// NewPlanner builds the plan for a subscription from its initial motion
// profile, effective at the subscription epoch cfg.T0.
func NewPlanner(cfg Config, profile mobility.Profile) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	p := &Planner{cfg: cfg}
	p.install(profile, cfg.T0)
	return p, nil
}

// Replan replaces the governing motion profile at virtual time now: the
// user's actual motion diverged (a waypoint update) or a fresher prediction
// arrived. Chains for boundaries past now are re-dispatched from the new
// epoch, which restarts the equation-16 warmup clock — exactly the paper's
// cost of a motion change.
func (p *Planner) Replan(profile mobility.Profile, now sim.Time) {
	p.replans++
	p.install(profile, now)
	p.memo.valid = false
}

// install records the profile and epoch and derives the warmup horizon.
func (p *Planner) install(profile mobility.Profile, now sim.Time) {
	p.profile = profile
	p.epoch = now
	ts := profile.TS
	if ts < now {
		ts = now
	}
	p.warmupUntil = ts + p.warmupInterval(profile)
}

// warmupInterval evaluates the equation-16 bound Tw for the profile's
// advance time Ta, clamping the speed ratio away from the poles (a
// stationary user warms up fastest; a user outrunning the prefetch speed
// never stops warming up, which the clamp turns into a very long bound
// rather than a panic).
func (p *Planner) warmupInterval(profile mobility.Profile) time.Duration {
	q := analysis.QueryParams{Period: p.cfg.Period, Fresh: p.cfg.Fresh, Sleep: p.cfg.Sleep}
	vp := DefaultPrefetchSpeed
	vu := profile.Path.VelAt(profile.TS).Len()
	if vu <= 0 || math.IsNaN(vu) {
		vu = 1e-3
	}
	if vu >= vp {
		vu = vp * (1 - 1e-3)
	}
	return analysis.WarmupInterval(q, profile.AdvanceTime(), vu, vp)
}

// kFor inverts due = T0 + k*Period; ok is false when due is not one of this
// subscription's period boundaries.
func (p *Planner) kFor(due sim.Time) (int, bool) {
	d := due - p.cfg.T0
	if d <= 0 || d%p.cfg.Period != 0 {
		return 0, false
	}
	return int(d / p.cfg.Period), true
}

// resolve computes period k's plan under the current profile and epoch, as
// far as the memo keeps it. ok is false outside the plan's coverage: k < 1,
// a boundary before the profile takes effect, or one past its validity (a
// profile with zero Validity covers all future boundaries).
func (p *Planner) resolve(k int) entryMemo {
	m := entryMemo{due: p.cfg.T0 + sim.Time(k)*p.cfg.Period}
	if k < 1 || m.due < p.profile.TS || p.profile.Validity > 0 && m.due > p.profile.Expiry() {
		return m
	}
	q := analysis.QueryParams{Period: p.cfg.Period, Fresh: p.cfg.Fresh, Sleep: p.cfg.Sleep}
	forwardBy := p.cfg.T0 + analysis.PrefetchForwardTime(q, k)
	switch p.cfg.Strategy.Kind {
	case JIT:
		m.launch = forwardBy
	case Greedy:
		m.launch = m.due - sim.Time(p.cfg.Strategy.Lookahead)*p.cfg.Period
	}
	m.launch = max(m.launch, p.epoch)
	m.center = p.profile.PredictAt(m.due)
	m.onTime = m.launch <= forwardBy
	m.ok = true
	return m
}

// lookup returns the boundary due resolved. Repeated lookups of one
// boundary — the per-node calls of a windowed evaluation — hit the memo and
// skip the plan math.
func (p *Planner) lookup(due sim.Time) *entryMemo {
	if !p.memo.valid || p.memo.due != due {
		p.memo = entryMemo{due: due}
		if k, ok := p.kFor(due); ok {
			p.memo = p.resolve(k)
		}
		p.memo.valid = true
	}
	return &p.memo
}

// captureAt is when a covered boundary's in-area nodes take the reading
// served for it: the boundary under JIT, the opening of its freshness window
// (never before the launch) under Greedy.
func (p *Planner) captureAt(m *entryMemo) sim.Time {
	if p.cfg.Strategy.Kind == Greedy {
		return min(max(m.due-sim.Time(p.cfg.Fresh), m.launch), m.due)
	}
	return m.due
}

// EntryFor returns the plan entry whose period comes due at the given
// boundary; ok is false when the boundary is outside the plan's coverage.
func (p *Planner) EntryFor(due sim.Time) (Entry, bool) {
	m := p.lookup(due)
	if !m.ok {
		return Entry{}, false
	}
	c := p.captureAt(m)
	return Entry{Center: m.center, LaunchAt: m.launch, OnTime: m.onTime, CaptureAt: c, HoldUntil: c + sim.Time(p.cfg.holdBound())}, true
}

// PeriodStatus returns the plan's view of the period due at `due` in one
// snapshot — the core engine's PrefetchPlan hook. staged reports a chain
// that met its equation-10 forward deadline with readings inside the
// hold-time ledger (ready is then the boundary); warmup marks a covered
// boundary whose chain launched too late, the mechanical form of the
// paper's equation-16 warmup regime after a new profile. For the standard
// slow-user settings the mechanical warmup and the closed-form bound agree
// exactly (pinned by tests); the bound itself, rounded to whole periods
// and widened by the speed ratio, is reported as Stats().WarmupUntil.
// Resolving everything from one lookup keeps staged and warmup an exact
// partition of covered periods.
func (p *Planner) PeriodStatus(due sim.Time) (ready sim.Time, staged, warmup bool) {
	m := p.lookup(due)
	if !m.ok {
		return 0, false, false
	}
	if !m.onTime || m.due-p.captureAt(m) > sim.Time(p.cfg.holdBound()) {
		return 0, false, true
	}
	return m.due, true, false
}

// Sampler wraps the field's node sampling schedule with the plan: a node
// inside the predicted pickup area of an on-time period is served its
// prefetched reading (captured at the plan's capture time, subject to the
// hold-time ledger), anything else falls through to the base schedule. The
// third result reports whether the reading came from the plan. The returned
// sampler has the shape of the engine's per-query AreaSampler.
//
// The sampler itself keeps no ledger — an atomic increment per in-area
// reading was measurable on dense Advance batches. The driver folds each
// evaluation's WindowResult.Prefetched into the served counter once per
// period via NoteServed.
func (p *Planner) Sampler(base func(id int32, at sim.Time) (sim.Time, bool)) func(id int32, pos geom.Point, at sim.Time) (sim.Time, bool, bool) {
	return func(id int32, pos geom.Point, at sim.Time) (sim.Time, bool, bool) {
		if m := p.lookup(at); m.ok && m.onTime && pos.Within(m.center, p.cfg.Radius) {
			if c := p.captureAt(m); at <= c+sim.Time(p.cfg.holdBound()) {
				return c, true, true
			}
		}
		if base == nil {
			return at, true, false
		}
		t, ok := base(id, at)
		return t, ok, false
	}
}

// NoteServed folds one evaluation's prefetched-contributor count into the
// served ledger. Drivers call it once per period with the evaluation's
// Prefetched count.
func (p *Planner) NoteServed(n int) {
	if n > 0 {
		p.served += int64(n)
	}
}

// Outstanding counts the chains dispatched but not yet consumed at virtual
// time `at` — the live analogue of the paper's storage metric (equations
// 11 and 12: bounded by the lookahead under Greedy, by the equation-12
// constant under JIT).
func (p *Planner) Outstanding(at sim.Time) int {
	k := int((at-p.cfg.T0)/p.cfg.Period) + 1
	if k < 1 {
		k = 1
	}
	n := 0
	// The launch is non-decreasing in k, so the first future launch ends
	// the outstanding window.
	for ; ; k++ {
		if m := p.resolve(k); !m.ok || m.launch > at {
			break
		}
		n++
	}
	return n
}

// Stats is a snapshot of the planner's ledger.
type Stats struct {
	// Strategy echoes the normalized strategy (Greedy's default lookahead
	// resolved).
	Strategy Strategy
	// Replans counts profile replacements since the subscription opened.
	Replans int
	// Served counts prefetched readings handed to windowed evaluations.
	Served int64
	// WarmupUntil is the end of the current equation-16 warmup interval;
	// periods due before it are flagged Warmup.
	WarmupUntil sim.Time
	// Epoch is when the governing profile was installed.
	Epoch sim.Time
	// Outstanding counts the chains dispatched and not yet consumed at the
	// last evaluated boundary — the live equation-11/12 storage. A bare
	// Planner does not know that boundary; Subscription.PrefetchStats fills it.
	Outstanding int

	// The corridor counters describe the subscription's spatial corridor
	// cache when one is attached; Subscription.PrefetchStats fills them from
	// corridor.Cache.Stats (the planner itself never touches them, so they
	// stay zero on a bare Planner). CorridorHits counts periods served
	// from a warm staged buffer, CorridorMisses cold-scan fallbacks,
	// CorridorMispredicts boundaries at which the user's actual position
	// escaped the corridor (each of which forced an immediate re-plan),
	// and CorridorStaged snapshots built over the subscription's lifetime.
	CorridorHits        int64
	CorridorMisses      int64
	CorridorMispredicts int64
	CorridorStaged      int64
}

// Stats returns the planner's ledger snapshot.
func (p *Planner) Stats() Stats {
	return Stats{
		Strategy:    p.cfg.Strategy,
		Replans:     p.replans,
		Served:      p.served,
		WarmupUntil: p.warmupUntil,
		Epoch:       p.epoch,
	}
}
