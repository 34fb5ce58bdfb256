// Package servepath is the serve protocol of one temporal query, written
// once: which machinery the query is wired to (prefetch planner, corridor
// cache, shared aggregate pyramid) and what its driver owes that machinery
// around every period. The session layer holds a Path per subscription and
// drives it so:
//
//	path.Attach(q, cfg, pos, profile, stream)  // once, after registering q
//	for each due boundary:
//		path.Before(due)
//		q.Lock()
//		wr, ok := q.EvaluateDueAt(pos, now, rb)
//		class, mispredicted := path.After(&wr, pos)
//		q.Unlock()
package servepath

import (
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/sim"
)

// Config selects a query's serve machinery and carries what it needs of the
// query's contract and of the field it runs over.
type Config struct {
	// A prefetching Strategy attaches a planner; a positive Lookahead adds a
	// corridor cache staging that many boundaries ahead under the error
	// bound Model; a non-nil Pyramid is the shared aggregate index of the
	// query's boundary class.
	Strategy  prefetch.Strategy
	Lookahead int
	Model     corridor.ErrorModel
	Pyramid   *pyramid.Pyramid

	// The query's contract, and the epoch its periods are counted from.
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration
	T0       sim.Time

	// The field: its duty cycle, its sampling schedule (what a planned query
	// reads where the plan staged nothing) and its node index (what a
	// corridor snapshots).
	Sleep   time.Duration
	Sampler core.Sampler
	Grid    *geom.ShardedGrid
}

// Path is one query's serve machinery and the state of driving it. The zero
// value serves cold and on demand; hold it by value. Before and After belong
// to the query's one driver; Replan is safe from any goroutine once Attach
// has returned, and Stats from any that excludes After.
type Path struct {
	planner *prefetch.Planner
	cache   *corridor.Cache
	pyramid *pyramid.Pyramid

	// stream is the predicted-profile stream, next its first undelivered
	// index.
	stream []mobility.TimedProfile
	next   int

	// lastPos/lastAt are the latest ground-truth observation — where the
	// query registered, then each evaluated boundary — from which a mispredict
	// correction takes its velocity.
	lastPos geom.Point
	lastAt  sim.Time
	period  time.Duration
}

// Attach wires q's hooks per cfg. pos is where the user stands at cfg.T0 (the
// position q was registered at). A planner starts from profile, or from
// whatever stream — later predictions, in delivery order on the query's clock
// — has delivered by cfg.T0. On error q is left unwired.
func (p *Path) Attach(q *core.Query, cfg Config, pos geom.Point, profile mobility.Profile, stream []mobility.TimedProfile) error {
	*p = Path{pyramid: cfg.Pyramid, lastPos: pos, lastAt: cfg.T0, period: cfg.Period}
	if cfg.Strategy.Prefetching() {
		p.stream = stream
		for p.next < len(stream) && stream[p.next].Deliver <= cfg.T0 {
			profile = stream[p.next].Profile
			p.next++
		}
		var err error
		p.planner, err = prefetch.NewPlanner(prefetch.Config{
			Strategy: cfg.Strategy,
			Radius:   cfg.Radius,
			Period:   cfg.Period,
			Deadline: cfg.Deadline,
			Fresh:    cfg.Fresh,
			Sleep:    cfg.Sleep,
			T0:       cfg.T0,
		}, profile)
		if err != nil {
			return err
		}
		if cfg.Lookahead > 0 {
			p.cache, err = corridor.NewCache(corridor.Config{
				Lookahead: cfg.Lookahead,
				Model:     cfg.Model,
				Radius:    cfg.Radius,
				Period:    cfg.Period,
				T0:        cfg.T0,
			}, cfg.Grid)
			if err != nil {
				return err
			}
			p.cache.SetProfile(profile, cfg.T0)
			q.SetWarmer(p.cache)
		}
		q.SetSampler(p.planner.Sampler(cfg.Sampler))
		q.SetPlan(p.planner)
	}
	if p.pyramid != nil {
		q.SetAggIndex(p.pyramid)
	}
	return nil
}

// Before prepares the boundary at due: predictions delivered by then govern
// its plan and corridor, so each is installed, once and in delivery order;
// and the boundary's pyramid epoch is ingested (every query of the class
// calls this: the first arrivals build the epoch cooperatively, the rest
// return at once).
func (p *Path) Before(due sim.Time) {
	for p.next < len(p.stream) && p.stream[p.next].Deliver <= due {
		tp := p.stream[p.next]
		p.next++
		p.Replan(tp.Profile, tp.Deliver)
	}
	if p.pyramid != nil {
		p.pyramid.EnsureEpoch(due)
	}
}

// After settles the period just evaluated at ground-truth position pos: it
// classifies the serve (the classes partition evaluated periods) and credits
// the plan with the prefetched readings served. With a corridor it then takes
// a mispredict — an actual position outside the corridor already cost the
// period its warm serve and staging credit, the evaluation having run cold
// with honest accounting — re-planning at once along the line through the
// last two observed positions; and it tops the staged window up relative to
// the boundary just collected, so boundary k+1's snapshot is cut ahead of its
// due time whatever the tick coarseness.
func (p *Path) After(wr *core.WindowResult, pos geom.Point) (class obs.Class, mispredicted bool) {
	switch {
	case wr.PyramidHit:
		class = obs.ClassPyramid
	case wr.CorridorHit:
		class = obs.ClassCorridor
	case p.planner != nil:
		class = obs.ClassPlanned
	}
	if p.planner != nil {
		p.planner.NoteServed(wr.Prefetched)
	}
	if p.cache != nil {
		if at, actual, ok := p.cache.TakeMispredict(); ok {
			mispredicted = true
			var vel geom.Vec
			if at > p.lastAt {
				vel = actual.Sub(p.lastPos).Scale(1 / (at - p.lastAt).Seconds())
			}
			p.Replan(LinearProfile(actual, vel, at, p.period), at)
		}
		p.cache.StageThrough(wr.Due)
	}
	p.lastPos, p.lastAt = pos, wr.Due
	return class, mispredicted
}

// Replan replaces the governing prediction at virtual time at (a delivered
// profile, a mispredict correction, a reported waypoint): chains are
// re-dispatched, the equation-16 warmup clock restarts and the corridor is
// re-swept. A no-op on an unplanned path.
func (p *Path) Replan(profile mobility.Profile, at sim.Time) {
	if p.planner == nil {
		return
	}
	p.planner.Replan(profile, at)
	if p.cache != nil {
		p.cache.SetProfile(profile, at)
	}
}

// Planned reports whether a prefetch planner is attached.
func (p *Path) Planned() bool { return p.planner != nil }

// Stats returns the planner's ledger with the corridor cache's counters
// merged in and the chains outstanding at the boundary After last settled;
// ok is false on an unplanned path. It reads that boundary, so it must not
// run concurrently with After.
func (p *Path) Stats() (st prefetch.Stats, ok bool) {
	if p.planner == nil {
		return prefetch.Stats{}, false
	}
	st = p.planner.Stats()
	st.Outstanding = p.planner.Outstanding(p.lastAt)
	if p.cache != nil {
		cs := p.cache.Stats()
		st.CorridorHits = cs.Hits
		st.CorridorMisses = cs.Misses
		st.CorridorMispredicts = cs.Mispredicts
		st.CorridorStaged = cs.StagedBoundaries
	}
	return st, true
}

// LinearProfile is the prediction one ground-truth observation supports: a
// straight line from pos at vel, generated the instant it takes effect
// (Ta = 0, so equation 16 charges the full warmup interval — the cost of a
// motion change) and covering every later boundary.
func LinearProfile(pos geom.Point, vel geom.Vec, at sim.Time, period time.Duration) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.LinearPath(pos, vel, at, at+period),
		TS:        at,
		Generated: at,
		Version:   1,
	}
}
