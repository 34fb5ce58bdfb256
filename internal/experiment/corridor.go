package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"mobiquery/internal/mobility"
	"mobiquery/internal/prefetch"
)

// CorridorConfig describes the corridor-comparison scenario: the same
// turning mobile-user population and sleepy sensor field evaluated five
// ways — on demand, just-in-time prefetching from exact per-leg motion
// profiles, JIT from a noisy GPS predictor's profiles, and both profile
// modes again with the spatial corridor cache staging node snapshots along
// the predicted path. It measures what the corridor buys (warm staged
// evaluations instead of cold index scans) and what prediction error costs
// (mispredicts, late periods), on top of the timing-only planner.
type CorridorConfig struct {
	Base
	Courses

	// GPSError parameterizes the noisy profile modes' history-based
	// predictor (the paper's Section 6.3 location error), which samples
	// every CorridorGPSSampling.
	GPSError float64

	// Lookahead is how many boundaries ahead the corridor stages.
	// ErrorBound is the noisy arms' corridor inflation in meters; zero
	// selects a practical default (the predictor's re-profiling threshold
	// plus two GPS error radii) — deliberately tighter than the proven
	// worst case, so sharp turns surface as mispredicts.
	Lookahead  int
	ErrorBound float64
}

// CorridorGPSSampling is the corridor scenario's GPS fix interval.
const CorridorGPSSampling = 2 * time.Second

// DefaultCorridor returns the headline comparison: the prefetch scenario's
// 40-user/5k-node sleepy field, but with turning courses and a 2 s / 5 m
// GPS predictor feeding the planners.
func DefaultCorridor() CorridorConfig {
	return CorridorConfig{
		Base:      DefaultPrefetch().Base,
		Courses:   Courses{Users: 40, SpeedMin: 1, SpeedMax: 5, ChangeInterval: 8 * time.Second},
		GPSError:  5,
		Lookahead: 4,
	}
}

// Courses is the population of the corridor and pyramid scenarios: Users
// mobile users following random-direction ground-truth courses, speed in
// [SpeedMin, SpeedMax], a new heading every ChangeInterval.
type Courses struct {
	Users          int
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
}

// Validate reports configuration errors.
func (c Courses) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("experiment: Users must be positive")
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("experiment: speed range [%v, %v] invalid", c.SpeedMin, c.SpeedMax)
	case c.ChangeInterval <= 0:
		return fmt.Errorf("experiment: ChangeInterval must be positive")
	}
	return nil
}

// draw draws one user's ground truth from rng, starting inside the field's
// inner band.
func (c Courses) draw(b Base, rng *rand.Rand) mobility.Course {
	return mobility.NewRandomCourse(mobility.CourseSpec{
		Region:         b.region(),
		Start:          b.inner().UniformPoint(rng),
		SpeedMin:       c.SpeedMin,
		SpeedMax:       c.SpeedMax,
		ChangeInterval: c.ChangeInterval,
		Duration:       b.Duration,
	}, rng)
}

// Validate reports configuration errors.
func (c CorridorConfig) Validate() error {
	if err := c.Courses.Validate(); err != nil {
		return err
	}
	switch {
	case c.GPSError < 0:
		return fmt.Errorf("experiment: corridor GPSError must be non-negative")
	case c.Lookahead <= 0 || c.ErrorBound < 0:
		return fmt.Errorf("experiment: corridor Lookahead must be positive and ErrorBound non-negative")
	}
	return c.Base.Validate()
}

// noisyBound resolves the noisy arms' corridor inflation.
func (c CorridorConfig) noisyBound() float64 {
	if c.ErrorBound > 0 {
		return c.ErrorBound
	}
	return mobility.DefaultThreshold(c.GPSError) + 2*c.GPSError
}

// exactBound is the exact arms' inflation: per-leg exact profiles predict
// the course bit-for-bit away from partial-segment interpolation, so a few
// meters absorb float noise and the instant between a heading change and
// its profile delivery.
const exactBound = 2.0

// RunCorridor executes the comparison: arms "on-demand", "jit/exact",
// "jit/noisy", "jit+corridor/exact" and "jit+corridor/noisy". A corridor arm
// must agree with its corridor-less twin on the digest whenever no
// mispredict forced an extra re-plan.
func RunCorridor(cfg CorridorConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	w, rng := newWorkload(cfg.Base)
	jit := prefetch.Strategy{Kind: prefetch.JIT}
	w.arms = []arm{
		{label: "on-demand"},
		{label: "jit/exact", strat: jit},
		{label: "jit/noisy", strat: jit, noisy: true},
		{label: "jit+corridor/exact", strat: jit, lookahead: cfg.Lookahead, bound: exactBound},
		{label: "jit+corridor/noisy", strat: jit, noisy: true, lookahead: cfg.Lookahead, bound: cfg.noisyBound()},
	}
	w.fold = foldPlanned
	// Ground truth and both profile streams come from per-user sub-seeds of
	// the master stream.
	for i := 0; i < cfg.Users; i++ {
		courseRNG := rand.New(rand.NewSource(rng.Int63()))
		gpsRNG := rand.New(rand.NewSource(rng.Int63()))
		course := cfg.draw(cfg.Base, courseRNG)
		w.users = append(w.users, &user{
			id:    uint32(i + 1),
			pos:   course.PosAt,
			exact: mobility.ExactProfiler{Course: course}.Profiles(),
			noisy: mobility.GPSPredictor{
				Course:   course,
				Sampling: CorridorGPSSampling,
				Err:      cfg.GPSError,
				RNG:      gpsRNG,
			}.Profiles(),
		})
	}
	return w.run()
}
