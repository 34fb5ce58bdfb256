package experiment

import (
	"fmt"
	"math"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/servepath"
	"mobiquery/internal/sim"
)

// PrefetchConfig describes the strategy-comparison scenario: the same
// mobile-user population, sensor field, and coarse service clock run three
// times — on-demand, just-in-time, and greedy prefetching — so the live
// effect of predictive sampling along the motion profile (lateness,
// staleness, prefetched readings, storage) is measured head to head. The
// field's duty cycle deliberately exceeds the freshness window and the
// clock tick deliberately misaligns with the period (so on-demand collection
// runs late), which is exactly the regime the paper's prefetching exists for.
type PrefetchConfig struct {
	Base

	// Users mobile users walk straight lines.
	Users int

	// Lookahead is Greedy's chain window (periods ahead); zero selects the
	// planner's minimal safe default. Replans > 0 injects that many
	// ground-truth waypoint re-plans per user, spread over the run.
	Lookahead int
	Replans   int
}

// DefaultPrefetch returns the headline comparison: 40 walking users over a
// 5k-node field whose 3 s duty cycle dwarfs the 1 s freshness window,
// evaluated on a 300 ms clock against 1 s periods with 100 ms slack.
func DefaultPrefetch() PrefetchConfig {
	return PrefetchConfig{
		Base: Base{
			Seed:         1,
			Nodes:        5000,
			RegionSide:   2000,
			SamplePeriod: 3 * time.Second,
			Radius:       150,
			Period:       time.Second,
			Deadline:     100 * time.Millisecond,
			Fresh:        time.Second,
			Duration:     30 * time.Second,
			Tick:         300 * time.Millisecond,
			Field:        field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
		},
		Users:     40,
		Lookahead: 12,
	}
}

// Validate reports configuration errors.
func (c PrefetchConfig) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("experiment: prefetch Users must be positive")
	case c.Lookahead < 0 || c.Replans < 0:
		return fmt.Errorf("experiment: prefetch Lookahead and Replans must be non-negative")
	}
	return c.Base.Validate()
}

// RunPrefetch executes the comparison: arms "on-demand", "jit" and "greedy"
// over users whose exact straight-line profiles arrive with no advance
// notice (Ta = 0).
func RunPrefetch(cfg PrefetchConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	w, rng := newWorkload(cfg.Base)
	w.arms = []arm{
		{label: "on-demand"},
		{label: "jit", strat: prefetch.Strategy{Kind: prefetch.JIT}},
		{label: "greedy", strat: prefetch.Strategy{Kind: prefetch.Greedy, Lookahead: cfg.Lookahead}},
	}
	w.replans = cfg.Replans
	w.fold = foldPlanned
	inner := cfg.inner()
	for i := 0; i < cfg.Users; i++ {
		start := inner.UniformPoint(rng)
		speed := 1 + rng.Float64()*4
		vel := geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed)
		pos := func(t sim.Time) geom.Point { return start.Add(vel.Scale(t.Seconds())) }
		w.users = append(w.users, &user{
			id:  uint32(i + 1),
			pos: pos,
			plan: func(t sim.Time) mobility.Profile {
				return servepath.LinearProfile(pos(t), vel, t, cfg.Period)
			},
		})
	}
	return w.run()
}
