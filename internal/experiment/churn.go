package experiment

import (
	"fmt"
	"math"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// ChurnConfig describes the dynamic-membership scenario: a static
// population of streaming users holds session-long subscriptions while
// churners join and leave mid-run — the service-shaped workload the session
// API exposes publicly. It runs twice, with the churners and with the static
// population alone; the scenario's acceptance property is that churn never
// perturbs the static users' results.
type ChurnConfig struct {
	Base

	// Static users subscribe at t=0 and stay; Churners join at staggered
	// times and leave again before the run ends.
	Static   int
	Churners int
}

// DefaultChurn returns the headline churn scenario: 50 resident streaming
// users over a 5k-node field with 100 users cycling through mid-run.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Base: Base{
			Seed:         1,
			Nodes:        5000,
			RegionSide:   2000,
			SamplePeriod: time.Second,
			Radius:       150,
			Period:       2 * time.Second,
			Deadline:     0,
			Fresh:        time.Second,
			Duration:     60 * time.Second,
			Tick:         100 * time.Millisecond,
			Field:        field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
		},
		Static:   50,
		Churners: 100,
	}
}

// Validate reports configuration errors.
func (c ChurnConfig) Validate() error {
	if c.Static <= 0 || c.Churners < 0 {
		return fmt.Errorf("experiment: churn Static must be positive, Churners non-negative")
	}
	return c.Base.Validate()
}

// Arm labels of the churn scenario.
const (
	ChurnArm  = "with churners"
	StaticArm = "static only"
)

// RunChurn executes the churn scenario. Both arms draw the same users; the
// digest covers the static ones, so the two arms agree on it exactly when
// churn left the static users' results untouched.
func RunChurn(cfg ChurnConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	w, rng := newWorkload(cfg.Base)
	w.arms = []arm{{label: ChurnArm}, {label: StaticArm, residents: true}}
	w.fold = foldContract
	region := cfg.region()
	// A user walks a straight line from where they joined, clamped to the
	// region.
	walker := func(id int) *user {
		start := region.UniformPoint(rng)
		speed := 1 + rng.Float64()*4
		vel := geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed)
		u := &user{id: uint32(id)}
		u.pos = func(t sim.Time) geom.Point {
			return region.Clamp(start.Add(vel.Scale((t - u.joinAt).Seconds())))
		}
		return u
	}
	for i := 0; i < cfg.Static; i++ {
		w.users = append(w.users, walker(i+1))
	}
	// Churners draw their randomness after the static users, from the same
	// serial stream: leaving them out keeps the static population's
	// placement, courses, and node field untouched.
	for j := 0; j < cfg.Churners; j++ {
		u := walker(cfg.Static + j + 1)
		u.churner = true
		u.joinAt = time.Duration(rng.Int63n(int64(cfg.Duration * 7 / 10)))
		u.leaveAt = u.joinAt + cfg.Duration/10 + time.Duration(rng.Int63n(int64(cfg.Duration/5)))
		w.users = append(w.users, u)
	}
	return w.run()
}
