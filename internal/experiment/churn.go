package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// ChurnConfig describes the dynamic-membership scenario: a static
// population of streaming users holds session-long subscriptions while
// churners join and leave mid-run, all driven through the engine's
// temporal API (RegisterQuery / EvaluateDueAt) — the service-shaped
// workload the session API exposes publicly. The scenario's acceptance
// property is that churn never perturbs the static users' results.
type ChurnConfig struct {
	Seed int64

	// Nodes sensors over a RegionSide × RegionSide square, each refreshing
	// its reading every SamplePeriod (out of phase with one another).
	Nodes        int
	RegionSide   float64
	SamplePeriod time.Duration

	// Every user queries a circle of Radius under the same temporal
	// contract: one result per Period, due within Deadline slack, from
	// readings no staler than Fresh.
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration

	// Static users subscribe at t=0 and stay; Churners join at staggered
	// times and leave again before the run ends. The virtual clock
	// advances by Tick for Duration.
	Static   int
	Churners int
	Duration time.Duration
	Tick     time.Duration

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// DefaultChurn returns the headline churn scenario: 50 resident streaming
// users over a 5k-node field with 100 users cycling through mid-run.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Seed:         1,
		Nodes:        5000,
		RegionSide:   2000,
		SamplePeriod: time.Second,
		Radius:       150,
		Period:       2 * time.Second,
		Deadline:     0,
		Fresh:        time.Second,
		Static:       50,
		Churners:     100,
		Duration:     60 * time.Second,
		Tick:         100 * time.Millisecond,
		Field:        field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
	}
}

// Validate reports configuration errors.
func (c ChurnConfig) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Static <= 0 || c.Churners < 0:
		return fmt.Errorf("experiment: churn Nodes and Static must be positive, Churners non-negative")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: churn RegionSide and Radius must be positive")
	case c.SamplePeriod <= 0:
		return fmt.Errorf("experiment: churn SamplePeriod must be positive")
	case c.Period <= 0 || c.Deadline < 0 || c.Fresh < 0:
		return fmt.Errorf("experiment: churn Period must be positive, Deadline and Fresh non-negative")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("experiment: churn Tick must be positive and Duration at least one Period")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: churn Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: churn Field must be set")
	}
	return nil
}

// ChurnResult summarizes one churn run. StaticDigest is a pure function of
// the configuration minus the churners: a run with Churners=0 and an
// otherwise identical one must agree on it, which is how the tests pin the
// isolation property of dynamic membership.
type ChurnResult struct {
	Config ChurnConfig

	// Evaluations counts delivered periods across all users; Late those
	// past the deadline slack; StaleExclusions the total in-area readings
	// rejected by the freshness window.
	Evaluations     int
	Late            int
	StaleExclusions int

	// Joins and Leaves count churner arrivals and departures that actually
	// happened; PeakLive is the largest concurrent population.
	Joins    int
	Leaves   int
	PeakLive int

	// MeanFresh is the mean number of contributing (fresh) sensors per
	// evaluation.
	MeanFresh float64

	// StaticDigest is an order-independent digest of every static user's
	// per-period outcome (index, value bits, lateness, staleness).
	StaticDigest uint64

	Elapsed time.Duration
}

// churnUser is one user's precomputed session: course and membership
// window. All randomness is drawn serially up front so results cannot
// depend on goroutine interleaving.
type churnUser struct {
	id      uint32
	q       *core.Query // set on join
	start   geom.Point
	vel     geom.Vec
	joinAt  sim.Time // 0 for static users
	leaveAt sim.Time // past Duration for static users
	joined  bool
	gone    bool

	evals  int
	late   int
	stale  int
	fresh  int
	digest uint64
	static bool
}

// posAt returns the user's position at virtual time t, clamped to region.
func (u *churnUser) posAt(region geom.Rect, t sim.Time) geom.Point {
	dt := (t - u.joinAt).Seconds()
	return region.Clamp(u.start.Add(u.vel.Scale(dt)))
}

// RunChurn executes the churn scenario: it stands the engine up over the
// node field, subscribes the static population, then advances the virtual
// clock tick by tick, admitting and removing churners mid-run while every
// live user's due periods are evaluated through the freshness-windowed
// temporal path, fanned across the worker pool.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return ChurnResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := geom.Square(cfg.RegionSide)

	sensors := drawSensorField(rng, region, cfg.Field, cfg.Nodes, cfg.SamplePeriod)

	users := make([]*churnUser, 0, cfg.Static+cfg.Churners)
	course := func() (geom.Point, geom.Vec) {
		start := region.UniformPoint(rng)
		speed := 1 + rng.Float64()*4
		return start, geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed)
	}
	for i := 0; i < cfg.Static; i++ {
		start, vel := course()
		users = append(users, &churnUser{
			id: uint32(i + 1), start: start, vel: vel,
			leaveAt: cfg.Duration + cfg.Period, static: true,
		})
	}
	// Churners draw their randomness after the static users, from the same
	// serial stream: removing them (Churners=0) leaves the static
	// population's placement, courses, and node field untouched.
	for j := 0; j < cfg.Churners; j++ {
		start, vel := course()
		joinAt := time.Duration(rng.Int63n(int64(cfg.Duration * 7 / 10)))
		dwell := cfg.Duration/10 + time.Duration(rng.Int63n(int64(cfg.Duration/5)))
		users = append(users, &churnUser{
			id: uint32(cfg.Static + j + 1), start: start, vel: vel,
			joinAt: joinAt, leaveAt: joinAt + dwell,
		})
	}

	start := time.Now()
	eng, err := sensors.engine(cfg.Radius, cfg.Shards, cfg.Workers)
	if err != nil {
		return ChurnResult{}, err
	}

	spec := core.TemporalSpec{Period: cfg.Period, Deadline: cfg.Deadline, Fresh: cfg.Fresh}
	res := ChurnResult{Config: cfg}
	join := func(u *churnUser, at sim.Time) (err error) {
		u.joined = true
		u.q, err = eng.RegisterQuery(u.id, cfg.Radius, u.posAt(region, at), spec, at, u)
		return err
	}
	for _, u := range users {
		if u.static {
			if err := join(u, 0); err != nil {
				return ChurnResult{}, err
			}
		}
	}

	liveCount := cfg.Static
	if liveCount > res.PeakLive {
		res.PeakLive = liveCount
	}
	pump := duePump[*churnUser]{eng: eng}
	for t := cfg.Tick; t <= cfg.Duration; t += cfg.Tick {
		// Membership changes first: arrivals register with periods counted
		// from their join tick, departures free their ids immediately.
		for _, u := range users {
			if u.static || u.gone {
				continue
			}
			if !u.joined && u.joinAt < t {
				if err := join(u, t); err != nil {
					return ChurnResult{}, err
				}
				res.Joins++
				liveCount++
			}
			if u.joined && u.leaveAt <= t {
				u.gone = true
				u.q.Deregister()
				res.Leaves++
				liveCount--
			}
		}
		if liveCount > res.PeakLive {
			res.PeakLive = liveCount
		}
		// Only users with a period actually due this tick are touched
		// (duePump pops them in (due, id) order and drains each on a
		// worker); per-user evaluation is a pure function of the node field
		// and that user's course, so the fan-out cannot change results.
		pump.tick(t, func(u *churnUser, q *core.Query, boundary sim.Time) bool {
			wr, ok := q.EvaluateDueAt(u.posAt(region, boundary), t, nil)
			if !ok {
				return false
			}
			u.evals++
			u.fresh += wr.Data.Count
			u.stale += wr.StaleNodes
			if wr.Late {
				u.late++
			}
			// Per-user fold is ordered (periods are); the cross-user
			// fold below is a wrapping sum, so worker finish order
			// cannot leak into the digest.
			u.digest = u.digest*1099511628211 ^ uint64(wr.K)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Value(core.AggAvg))
			u.digest = u.digest*1099511628211 ^ uint64(wr.Lateness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.MaxStaleness)
			return true
		})
	}

	freshSum := 0
	for _, u := range users {
		res.Evaluations += u.evals
		res.Late += u.late
		res.StaleExclusions += u.stale
		freshSum += u.fresh
		if u.static {
			res.StaticDigest += (u.digest | 1) * uint64(u.id)
		}
	}
	if res.Evaluations > 0 {
		res.MeanFresh = float64(freshSum) / float64(res.Evaluations)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
