package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/sim"
)

// PrefetchConfig describes the strategy-comparison scenario: the same
// mobile-user population, sensor field, and coarse service clock run three
// times — on-demand, just-in-time, and greedy prefetching — so the live
// effect of predictive sampling along the motion profile (lateness,
// staleness, prefetched readings, storage) is measured head to head. The
// field's duty cycle deliberately exceeds the freshness window and the
// clock tick deliberately misaligns with the period, which is exactly the
// regime the paper's prefetching exists for.
type PrefetchConfig struct {
	Seed int64

	// Nodes sensors over a RegionSide × RegionSide square, each refreshing
	// its reading every SamplePeriod (the duty-cycle analogue, out of phase
	// with one another).
	Nodes        int
	RegionSide   float64
	SamplePeriod time.Duration

	// Every user queries a circle of Radius under the same contract: one
	// result per Period, due within Deadline slack, from readings no staler
	// than Fresh.
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration

	// Users mobile users walk straight lines for Duration while the
	// virtual clock advances by Tick (chosen to misalign with Period, so
	// on-demand collection runs late).
	Users    int
	Duration time.Duration
	Tick     time.Duration

	// Lookahead is Greedy's chain window (periods ahead); zero selects the
	// planner's minimal safe default. Replans > 0 injects that many
	// ground-truth waypoint re-plans per user, spread over the run.
	Lookahead int
	Replans   int

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// DefaultPrefetch returns the headline comparison: 40 walking users over a
// 5k-node field whose 3 s duty cycle dwarfs the 1 s freshness window,
// evaluated on a 300 ms clock against 1 s periods with 100 ms slack.
func DefaultPrefetch() PrefetchConfig {
	return PrefetchConfig{
		Seed:         1,
		Nodes:        5000,
		RegionSide:   2000,
		SamplePeriod: 3 * time.Second,
		Radius:       150,
		Period:       time.Second,
		Deadline:     100 * time.Millisecond,
		Fresh:        time.Second,
		Users:        40,
		Duration:     30 * time.Second,
		Tick:         300 * time.Millisecond,
		Lookahead:    12,
		Field:        field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
	}
}

// Validate reports configuration errors.
func (c PrefetchConfig) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Users <= 0:
		return fmt.Errorf("experiment: prefetch Nodes and Users must be positive")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: prefetch RegionSide and Radius must be positive")
	case c.SamplePeriod <= 0:
		return fmt.Errorf("experiment: prefetch SamplePeriod must be positive")
	case c.Period <= 0 || c.Deadline < 0 || c.Fresh < 0:
		return fmt.Errorf("experiment: prefetch Period must be positive, Deadline and Fresh non-negative")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("experiment: prefetch Tick must be positive and Duration at least one Period")
	case c.Lookahead < 0 || c.Replans < 0:
		return fmt.Errorf("experiment: prefetch Lookahead and Replans must be non-negative")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: prefetch Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: prefetch Field must be set")
	}
	return nil
}

// StrategyOutcome is one strategy's ledger over the shared workload.
type StrategyOutcome struct {
	Strategy prefetch.Strategy

	// Evaluations counts delivered periods; Late those past the deadline
	// slack; WarmupPeriods those inside an equation-16 warmup interval.
	Evaluations   int
	Late          int
	WarmupPeriods int

	// StaleExclusions counts in-area readings rejected by the freshness
	// window; PrefetchedReadings those served from the plan; MeanStaleness
	// averages each period's oldest contributing reading age.
	StaleExclusions    int
	PrefetchedReadings int
	MeanStaleness      time.Duration

	// PeakOutstanding is the largest per-user count of dispatched,
	// unconsumed chains — the live equation-11/12 storage metric (zero on
	// demand).
	PeakOutstanding int

	// Digest is an order-independent digest of every user's per-period
	// outcome; identical configurations must agree on it regardless of
	// Shards and Workers.
	Digest uint64
}

// PrefetchResult is the three-strategy comparison.
type PrefetchResult struct {
	Config   PrefetchConfig
	OnDemand StrategyOutcome
	JIT      StrategyOutcome
	Greedy   StrategyOutcome
	Elapsed  time.Duration
}

// Outcomes lists the three ledgers in comparison order.
func (r PrefetchResult) Outcomes() []StrategyOutcome {
	return []StrategyOutcome{r.OnDemand, r.JIT, r.Greedy}
}

// prefetchUser is one user's precomputed linear course plus the per-pass
// accumulator. Randomness is drawn serially up front; starts sit inside
// the region's inner band so courses never leave the field.
type prefetchUser struct {
	id    uint32
	start geom.Point
	vel   geom.Vec

	q       *core.Query
	planner *prefetch.Planner

	evals, late, warm, stale, prefetched int
	stalenessSum                         time.Duration
	peakOut                              int
	digest                               uint64
}

func (u *prefetchUser) posAt(t sim.Time) geom.Point {
	return u.start.Add(u.vel.Scale(t.Seconds()))
}

// profileAt is the user's exact straight-line motion profile generated at
// time t with no advance notice (Ta = 0), mirroring what the session API
// synthesizes on Subscribe and UpdateWaypoint.
func (u *prefetchUser) profileAt(t sim.Time, period time.Duration) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.LinearPath(u.posAt(t), u.vel, t, t+period),
		TS:        t,
		Generated: t,
		Version:   1,
	}
}

// RunPrefetch executes the comparison: one pass per strategy over an
// identical field, sampling schedule, and user population, each pass driven
// through the engine's temporal path with per-query planners exactly as the
// session API wires them.
func RunPrefetch(cfg PrefetchConfig) (PrefetchResult, error) {
	if err := cfg.Validate(); err != nil {
		return PrefetchResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := geom.Square(cfg.RegionSide)

	sensors := drawSensorField(rng, region, cfg.Field, cfg.Nodes, cfg.SamplePeriod)
	inner := geom.NewRect(0.15*cfg.RegionSide, 0.15*cfg.RegionSide, 0.85*cfg.RegionSide, 0.85*cfg.RegionSide)
	users := make([]*prefetchUser, cfg.Users)
	for i := range users {
		start := inner.UniformPoint(rng)
		speed := 1 + rng.Float64()*4
		users[i] = &prefetchUser{
			id:    uint32(i + 1),
			start: start,
			vel:   geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed),
		}
	}

	res := PrefetchResult{Config: cfg}
	start := time.Now()
	strategies := []prefetch.Strategy{
		{},
		{Kind: prefetch.JIT},
		{Kind: prefetch.Greedy, Lookahead: cfg.Lookahead},
	}
	for i, strat := range strategies {
		out, err := runPrefetchPass(cfg, strat, sensors, users)
		if err != nil {
			return PrefetchResult{}, err
		}
		switch i {
		case 0:
			res.OnDemand = out
		case 1:
			res.JIT = out
		case 2:
			res.Greedy = out
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runPrefetchPass runs one strategy over the shared workload.
func runPrefetchPass(cfg PrefetchConfig, strat prefetch.Strategy, sensors *sensorField, users []*prefetchUser) (StrategyOutcome, error) {
	eng, err := sensors.engine(cfg.Radius, cfg.Shards, cfg.Workers)
	if err != nil {
		return StrategyOutcome{}, err
	}

	spec := core.TemporalSpec{Period: cfg.Period, Deadline: cfg.Deadline, Fresh: cfg.Fresh}
	for _, u := range users {
		*u = prefetchUser{id: u.id, start: u.start, vel: u.vel} // reset the pass accumulator
		if u.q, err = eng.RegisterQuery(u.id, cfg.Radius, u.posAt(0), spec, 0, u); err != nil {
			return StrategyOutcome{}, err
		}
		if strat.Prefetching() {
			u.planner, err = prefetch.NewPlanner(prefetch.Config{
				Strategy: strat,
				Radius:   cfg.Radius,
				Period:   cfg.Period,
				Deadline: cfg.Deadline,
				Fresh:    cfg.Fresh,
				Sleep:    cfg.SamplePeriod,
			}, u.profileAt(0, cfg.Period))
			if err != nil {
				return StrategyOutcome{}, err
			}
			u.q.SetSampler(u.planner.Sampler(sensors.sampler))
			u.q.SetPlan(u.planner)
		}
	}

	// Ground-truth waypoint re-plans, spread evenly over the run; the
	// courses are straight lines so the correction is exact — what the
	// replan costs is the restarted equation-16 warmup.
	replanEvery := sim.Time(0)
	if cfg.Replans > 0 {
		replanEvery = cfg.Duration / sim.Time(cfg.Replans+1)
	}
	replansDone := 0

	pump := duePump[*prefetchUser]{eng: eng}
	for t := cfg.Tick; t <= cfg.Duration; t += cfg.Tick {
		if replanEvery > 0 && replansDone < cfg.Replans && t >= sim.Time(replansDone+1)*replanEvery {
			replansDone++
			for _, u := range users {
				u.q.SetWaypoint(u.posAt(t))
				if u.planner != nil {
					u.planner.Replan(u.profileAt(t, cfg.Period), t)
				}
			}
		}
		// As in the churn harness, only users with a period due this tick
		// are touched, and each user's evaluation is a pure function of the
		// shared field and their own course and plan — the worker fan-out
		// cannot change results.
		pump.tick(t, func(u *prefetchUser, q *core.Query, nextDue sim.Time) bool {
			wr, ok := q.EvaluateDueAt(u.posAt(nextDue), t, nil)
			if !ok {
				return false
			}
			u.evals++
			u.stale += wr.StaleNodes
			u.prefetched += wr.Prefetched
			if u.planner != nil {
				u.planner.NoteServed(wr.Prefetched)
			}
			u.stalenessSum += wr.MaxStaleness
			if wr.Late {
				u.late++
			}
			if wr.Warmup {
				u.warm++
			}
			if u.planner != nil {
				if out := u.planner.Outstanding(wr.Due); out > u.peakOut {
					u.peakOut = out
				}
			}
			u.digest = u.digest*1099511628211 ^ uint64(wr.K)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Value(core.AggAvg))
			u.digest = u.digest*1099511628211 ^ uint64(wr.Lateness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.MaxStaleness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.Prefetched)
			if wr.Warmup {
				u.digest = u.digest*1099511628211 ^ 1
			}
			return true
		})
	}

	out := StrategyOutcome{Strategy: strat}
	if strat.Kind == prefetch.Greedy && len(users) > 0 && users[0].planner != nil {
		out.Strategy = users[0].planner.Stats().Strategy // default lookahead resolved
	}
	var stalenessSum time.Duration
	for _, u := range users {
		out.Evaluations += u.evals
		out.Late += u.late
		out.WarmupPeriods += u.warm
		out.StaleExclusions += u.stale
		out.PrefetchedReadings += u.prefetched
		stalenessSum += u.stalenessSum
		if u.peakOut > out.PeakOutstanding {
			out.PeakOutstanding = u.peakOut
		}
		out.Digest += (u.digest | 1) * uint64(u.id)
	}
	if out.Evaluations > 0 {
		out.MeanStaleness = stalenessSum / time.Duration(out.Evaluations)
	}
	return out, nil
}
