package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mobiquery"
	"mobiquery/internal/geom"
)

// The extension figures are clients of the public Service: every arm of a
// figure opens its own Service over the same field, subscribes its users,
// steps the manual clock with Advance, and reads each period's QueryResult,
// each subscription's PrefetchStats and the Service's PyramidStats.

// scenario is one extension figure's workload: the field each arm's Service
// opens over, the contract every user subscribes with (an arm may add a
// strategy or a window), the clock step and run length, and the
// population.
type scenario struct {
	net            mobiquery.NetworkConfig
	spec           mobiquery.QuerySpec
	tick, duration time.Duration

	// users move over the field; in the churn figure they are the static
	// population and churners join and leave mid-run.
	users, churners int
	// Random-direction courses (pyramid): a speed in [speedMin, speedMax],
	// a new heading every change.
	speedMin, speedMax float64
	change             time.Duration
	// lookahead is greedy's chain window (prefetch). window is the windowed
	// pyramid arm's depth. step is the scale figure's stride per period.
	lookahead int
	step      float64
	window    int
}

// userStream offsets the seed of the users' random stream from the one Open
// places nodes with.
const userStream = 0x5eed

func (sc scenario) rng() *rand.Rand { return rand.New(rand.NewSource(sc.net.Seed ^ userStream)) }

// inner is the field's central band, where courses start so that they stay
// inside it.
func (sc scenario) inner() geom.Rect {
	s := sc.net.RegionSide
	return geom.NewRect(0.15*s, 0.15*s, 0.85*s, 0.85*s)
}

// course is a random-direction course from start, drawn from seed.
func (sc scenario) course(start mobiquery.Point, seed int64) mobiquery.CourseConfig {
	return mobiquery.CourseConfig{Seed: seed, RegionSide: sc.net.RegionSide, Start: start,
		SpeedMin: sc.speedMin, SpeedMax: sc.speedMax, ChangeInterval: sc.change, Duration: sc.duration}
}

// heading draws a random direction scaled to a speed in [1, 5] m/s.
func heading(rng *rand.Rand) geom.Vec {
	return geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(1 + rng.Float64()*4)
}

// user is one subscriber of an arm. A churner subscribes on the first tick
// past joinAt and closes on the first tick at or after leaveAt; everyone else
// subscribes at t = 0 and stays.
type user struct {
	src             mobiquery.MotionSource
	churner         bool
	joinAt, leaveAt time.Duration
}

// walk is a straight line from start at vel, clamped to region.
type walk struct {
	region geom.Rect
	start  mobiquery.Point
	vel    geom.Vec
}

func (w walk) PositionAt(t time.Duration) mobiquery.Point {
	return w.region.Clamp(w.start.Add(w.vel.Scale(t.Seconds())))
}

// arm is one Service's pass over the workload.
type arm struct {
	label string
	spec  mobiquery.QuerySpec
	users []user
}

// fold appends the values of one period that the digest covers.
type fold func(r *mobiquery.QueryResult, v []uint64) []uint64

// foldContract is the per-period outcome under the temporal contract.
func foldContract(r *mobiquery.QueryResult, v []uint64) []uint64 {
	return append(v, uint64(r.K), math.Float64bits(r.Value), uint64(r.Lateness), uint64(r.MaxStaleness))
}

// foldPlanned adds what a prefetch plan can change.
func foldPlanned(r *mobiquery.QueryResult, v []uint64) []uint64 {
	v = append(foldContract(r, v), uint64(r.PrefetchedNodes))
	if r.Warmup {
		v = append(v, 1)
	}
	return v
}

// foldAggregate covers every value a subscriber can observe of an aggregate
// query but its route.
func foldAggregate(r *mobiquery.QueryResult, v []uint64) []uint64 {
	return append(v, uint64(r.K), uint64(r.Contributors), math.Float64bits(r.Value), uint64(r.AreaNodes),
		uint64(r.StaleNodes), uint64(r.MaxStaleness), uint64(r.Lateness), uint64(r.WindowPeriods))
}

// outcome is one arm's ledger. Fields an arm cannot move stay zero.
type outcome struct {
	label string
	// strategy is the arm's, greedy's default lookahead resolved.
	strategy mobiquery.Strategy

	// Delivered periods; those past the deadline slack; those inside an
	// equation-16 warmup interval.
	periods, late, warmup int
	// In-area readings the freshness window excluded, contributors served
	// from a prefetch plan, all contributors, and the summed age of each
	// period's oldest contributing reading.
	stale, prefetched, fresh int
	staleness                time.Duration
	// Periods by route: the tile pyramid, a cold scan.
	pyramid, cold int
	// storage is the most chains one user held outstanding at any boundary
	// (equations 11/12).
	storage int
	// In-area sensors over all periods, and Value summed over the periods
	// that had contributors.
	area, valued int
	value        float64
	// Churners that joined and left, and the largest live population.
	joins, leaves, peakLive int
	// index is the Service's pyramid ledger.
	index mobiquery.PyramidStats
	// advance is the summed wall time of the arm's Advance calls, p50 and
	// p99 quantiles of one call's: wall time, never part of the digest.
	advance, p50, p99 time.Duration
	// digest is an order-independent digest of every resident user's
	// per-period values; identical configurations agree on it whatever
	// Workers is.
	digest uint64
}

func (o *outcome) add(r *mobiquery.QueryResult) {
	o.periods++
	if !r.OnTime {
		o.late++
	}
	if r.Warmup {
		o.warmup++
	}
	o.stale += r.StaleNodes
	o.prefetched += r.PrefetchedNodes
	o.fresh += r.Contributors
	o.staleness += r.MaxStaleness
	o.area += r.AreaNodes
	if r.Contributors > 0 {
		o.value += r.Value
		o.valued++
	}
	if r.PyramidHit {
		o.pyramid++
	} else {
		o.cold++
	}
}

func (o outcome) meanFresh() float64 { return float64(o.fresh) / float64(max(o.periods, 1)) }

func (o outcome) meanStaleness() time.Duration {
	return o.staleness / time.Duration(max(o.periods, 1))
}

func (o outcome) meanArea() float64 { return float64(o.area) / float64(max(o.periods, 1)) }

func (o outcome) meanValue() float64 { return o.value / float64(max(o.valued, 1)) }

// result is a figure's arms in table order, and the wall time of running
// them.
type result struct {
	arms    []outcome
	elapsed time.Duration
}

func (r result) arm(label string) outcome {
	for _, o := range r.arms {
		if o.label == label {
			return o
		}
	}
	return outcome{}
}

// run executes every arm, each on a Service of its own.
func (sc scenario) run(f fold, arms ...arm) (result, error) {
	if sc.tick <= 0 || sc.duration < sc.spec.Period {
		return result{}, fmt.Errorf("tick %v must be positive and duration %v at least one period", sc.tick, sc.duration)
	}
	start := time.Now()
	var res result
	for _, a := range arms {
		out, err := sc.runArm(a, f)
		if err != nil {
			return result{}, err
		}
		res.arms = append(res.arms, out)
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// runArm opens the arm's Service, subscribes the residents at t = 0 and
// advances the clock tick by tick. After each step it settles membership —
// churners join and leave once the step's periods are delivered — and drains
// every stream into the ledger and the users' digests. No figure's tick
// exceeds its period, so each step settles at most one boundary per user and
// reading the users' outstanding chains after every step sees them all.
func (sc scenario) runArm(a arm, f fold) (outcome, error) {
	ctx := context.Background()
	svc, err := mobiquery.Open(ctx, sc.net)
	if err != nil {
		return outcome{}, err
	}
	defer svc.Close()
	out := outcome{label: a.label, strategy: a.spec.Strategy}
	subs := make([]*mobiquery.Subscription, len(a.users))
	left := make([]bool, len(a.users))
	digests := make([]uint64, len(a.users))
	subscribe := func(i int) (err error) {
		subs[i], err = svc.Subscribe(ctx, a.spec, a.users[i].src)
		return err
	}
	var scratch []uint64
	drain := func(i int) {
		for {
			select {
			case r, ok := <-subs[i].Results():
				if !ok {
					return
				}
				out.add(&r)
				scratch = f(&r, scratch[:0])
				for _, v := range scratch {
					digests[i] = digests[i]*1099511628211 ^ v
				}
			default:
				return
			}
		}
	}

	live := 0
	for i, u := range a.users {
		if !u.churner {
			if err := subscribe(i); err != nil {
				return outcome{}, err
			}
			live++
		}
	}
	out.peakLive = live
	var steps []time.Duration
	for now := sc.tick; now <= sc.duration; now += sc.tick {
		t := time.Now()
		if err := svc.Advance(sc.tick); err != nil {
			return outcome{}, err
		}
		steps = append(steps, time.Since(t))
		for i, u := range a.users {
			switch {
			case !u.churner:
			case subs[i] == nil && u.joinAt < now:
				if err := subscribe(i); err != nil {
					return outcome{}, err
				}
				out.joins++
				live++
			case subs[i] != nil && !left[i] && u.leaveAt <= now:
				subs[i].Close()
				left[i] = true
				out.leaves++
				live--
			}
		}
		out.peakLive = max(out.peakLive, live)
		for i, sub := range subs {
			if sub != nil {
				drain(i)
				if st, ok := sub.PrefetchStats(); ok {
					out.storage = max(out.storage, st.Outstanding)
				}
			}
		}
	}

	for i, sub := range subs {
		if sub == nil {
			continue
		}
		if st, ok := sub.PrefetchStats(); ok {
			out.strategy = st.Strategy
		}
		// The per-user fold is ordered (periods are); across users it is a
		// wrapping sum, so no order of users can leak into the digest.
		if !a.users[i].churner {
			out.digest += (digests[i] | 1) * uint64(sub.ID())
		}
	}
	out.index, _ = svc.PyramidStats()
	for _, d := range steps {
		out.advance += d
	}
	if len(steps) > 0 {
		slices.Sort(steps)
		quantile := func(q float64) time.Duration { return steps[int(math.Ceil(q*float64(len(steps))))-1] }
		out.p50, out.p99 = quantile(0.5), quantile(0.99)
	}
	return out, nil
}

// Arm labels of the churn figure.
const (
	churnArm  = "with churners"
	staticArm = "static only"
)

// defaultChurn is the dynamic-membership figure: 50 resident streaming users
// over a 5k-node field with 100 users cycling through mid-run.
func defaultChurn() scenario {
	return scenario{
		net: mobiquery.NetworkConfig{Seed: 1, Nodes: 5000, RegionSide: 2000, SamplePeriod: time.Second,
			Field: mobiquery.GradientField(20, 0.001, 0.002)},
		spec:     mobiquery.QuerySpec{Radius: 150, Period: 2 * time.Second, Freshness: time.Second},
		tick:     100 * time.Millisecond,
		duration: 60 * time.Second,
		users:    50, churners: 100,
	}
}

// runChurn runs the churn figure: the static users walk straight lines, and
// the same users again with the churners on a second Service. The digest
// covers the static users, so the two arms agree on it exactly when churn
// left the static users' results untouched.
func runChurn(sc scenario) (result, error) {
	if sc.users <= 0 || sc.churners < 0 {
		return result{}, fmt.Errorf("churn needs static users and no negative churners (%d, %d)", sc.users, sc.churners)
	}
	rng := sc.rng()
	region := geom.Square(sc.net.RegionSide)
	walker := func() user {
		return user{src: walk{region: region, start: region.UniformPoint(rng), vel: heading(rng)}}
	}
	users := make([]user, 0, sc.users+sc.churners)
	for range sc.users {
		users = append(users, walker())
	}
	// Churners draw after the static users: leaving them out changes nothing
	// the static users see.
	for range sc.churners {
		u := walker()
		u.churner = true
		u.joinAt = time.Duration(rng.Int63n(int64(sc.duration * 7 / 10)))
		u.leaveAt = u.joinAt + sc.duration/10 + time.Duration(rng.Int63n(int64(sc.duration/5)))
		users = append(users, u)
	}
	return sc.run(foldContract, arm{churnArm, sc.spec, users}, arm{staticArm, sc.spec, users[:sc.users]})
}

// defaultPrefetch is the strategy comparison: 40 walking users over a
// 5k-node field whose 3 s duty cycle dwarfs the 1 s freshness window,
// stepped by 300 ms against 1 s periods with 100 ms slack — a tick that
// misaligns with the period, so on-demand collection runs late.
func defaultPrefetch() scenario {
	return scenario{
		net: mobiquery.NetworkConfig{Seed: 1, Nodes: 5000, RegionSide: 2000, SamplePeriod: 3 * time.Second,
			Field: mobiquery.GradientField(20, 0.001, 0.002)},
		spec:     mobiquery.QuerySpec{Radius: 150, Period: time.Second, Deadline: 100 * time.Millisecond, Freshness: time.Second},
		tick:     300 * time.Millisecond,
		duration: 30 * time.Second,
		users:    40, lookahead: 12,
	}
}

// runPrefetch runs the prefetch figure: arms "on-demand", "jit" and
// "greedy" over users walking straight lines, whose exact profiles the
// Service synthesizes with no advance notice (Ta = 0).
func runPrefetch(sc scenario) (result, error) {
	if sc.users <= 0 {
		return result{}, fmt.Errorf("prefetch needs users, got %d", sc.users)
	}
	rng, inner := sc.rng(), sc.inner()
	users := make([]user, sc.users)
	for i := range users {
		start := inner.UniformPoint(rng)
		vel := heading(rng)
		users[i].src = mobiquery.LinearMotion(start, vel.DX, vel.DY)
	}
	with := func(s mobiquery.Strategy) mobiquery.QuerySpec {
		spec := sc.spec
		spec.Strategy = s
		return spec
	}
	return sc.run(foldPlanned,
		arm{"on-demand", sc.spec, users},
		arm{"jit", with(mobiquery.JITStrategy()), users},
		arm{"greedy", with(mobiquery.GreedyStrategy(sc.lookahead)), users})
}

// quantizedField is a position- and time-dependent field whose values are
// multiples of 1/64 with bounded magnitude: sums of them are exact in
// float64, so folds that differ only in grouping (the flat scan's canonical
// grid order, the pyramid's tile-major order) agree bit for bit.
type quantizedField struct{}

func (quantizedField) Sample(p mobiquery.Point, t time.Duration) float64 {
	q := math.Floor(p.X/16+p.Y/32) + math.Floor(float64(t/time.Millisecond)/256)
	return math.Mod(q, 512) / 64
}

// defaultPyramid is the aggregate-pyramid figure: 30 users sweeping 400 m
// disks over a 4k-node field, 1 s periods, with 3-period lookback windows on
// the windowed arm. A 400 m disk spans more than six of the Service's index
// cells, so every on-demand subscription aggregates through the pyramid.
func defaultPyramid() scenario {
	return scenario{
		net:      mobiquery.NetworkConfig{Seed: 1, Nodes: 4000, RegionSide: 2000, SamplePeriod: 3 * time.Second, Field: quantizedField{}},
		spec:     mobiquery.QuerySpec{Radius: 400, Period: time.Second, Deadline: 100 * time.Millisecond, Freshness: time.Second},
		tick:     300 * time.Millisecond,
		duration: 30 * time.Second,
		users:    30, speedMin: 1, speedMax: 5, change: 8 * time.Second,
		window: 3,
	}
}

// runPyramid runs the pyramid figure: arms "pyramid" and "pyramid/window"
// over users on random-direction courses.
func runPyramid(sc scenario) (result, error) {
	if sc.users <= 0 || sc.window < 2 {
		return result{}, fmt.Errorf("pyramid needs users and a window of at least 2 (%d, %d)", sc.users, sc.window)
	}
	rng, inner := sc.rng(), sc.inner()
	users := make([]user, sc.users)
	for i := range users {
		start := inner.UniformPoint(rng)
		var err error
		if users[i].src, err = mobiquery.PlannedMotion(sc.course(start, rng.Int63())); err != nil {
			return result{}, err
		}
	}
	windowed := sc.spec
	windowed.Window = sc.window
	return sc.run(foldAggregate, arm{"pyramid", sc.spec, users}, arm{"pyramid/window", windowed, users})
}

// defaultScale is the headline scale figure: 10k concurrent users over a
// 100k-node field — 500× the paper's node count — each with one paper-scale
// radius-150 m query of 1 s periods in a 10 km region. Each period every user
// moves step meters along a fixed random heading, reflecting at the region
// boundary, and the clock advances one period per tick.
func defaultScale() scenario {
	return scenario{
		net:  mobiquery.NetworkConfig{Seed: 1, Nodes: 100_000, RegionSide: 10_000, Field: mobiquery.GradientField(20, 0.001, 0.002)},
		spec: mobiquery.QuerySpec{Radius: 150, Period: time.Second},
		tick: time.Second, duration: 5 * time.Second,
		users: 10_000, step: 5,
	}
}

// rounds is the periods a scale run delivers to each user.
func (sc scenario) rounds() int { return int(sc.duration / sc.spec.Period) }

// replay is a user's precomputed per-period positions: the r-th boundary
// falls r+1 periods after the subscription.
type replay struct {
	period time.Duration
	at     []mobiquery.Point
}

func (m replay) PositionAt(t time.Duration) mobiquery.Point {
	return m.at[min(max(int(t/m.period)-1, 0), len(m.at)-1)]
}

// runScale runs the scale figure, one arm: every user's positions drawn up
// front, all subscribed at t = 0. Its digest covers every aggregate a user
// reads, so serial and parallel dispatch agree on it exactly when only wall
// time moved.
func runScale(sc scenario) (result, error) {
	if sc.users <= 0 || sc.step < 0 || sc.spec.Period <= 0 || sc.rounds() <= 0 {
		return result{}, fmt.Errorf("scale needs users, a non-negative step and a period within the run (%d, %v, %v)", sc.users, sc.step, sc.spec.Period)
	}
	rng := sc.rng()
	region := geom.Square(sc.net.RegionSide)
	users := make([]user, sc.users)
	for i := range users {
		p, dir := region.UniformPoint(rng), geom.FromAngle(rng.Float64()*2*math.Pi)
		path := replay{period: sc.spec.Period, at: make([]mobiquery.Point, sc.rounds())}
		for r := range path.at {
			if r > 0 {
				dir = region.Reflect(p, dir)
				p = region.Clamp(p.Add(dir.Scale(sc.step)))
			}
			path.at[r] = p
		}
		users[i].src = path
	}
	return sc.run(foldAggregate, arm{"scale", sc.spec, users})
}
