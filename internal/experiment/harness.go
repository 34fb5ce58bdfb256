package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
	"mobiquery/internal/servepath"
	"mobiquery/internal/sim"
)

// Base is what the churn, prefetch, corridor and pyramid scenarios share: a
// sensor field, one query contract for every user, a virtual clock and the
// engine sizing. Each scenario's config embeds it and adds its population.
type Base struct {
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

	// The virtual clock advances by Tick for Duration.
	Duration time.Duration
	Tick     time.Duration

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// Validate reports configuration errors in the shared fields.
func (c Base) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("experiment: Nodes must be positive")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: RegionSide and Radius must be positive")
	case c.SamplePeriod <= 0:
		return fmt.Errorf("experiment: SamplePeriod must be positive")
	case c.Period <= 0 || c.Deadline < 0 || c.Fresh < 0:
		return fmt.Errorf("experiment: Period must be positive, Deadline and Fresh non-negative")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("experiment: Tick must be positive and Duration at least one Period")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: Field must be set")
	}
	return nil
}

// region is the deployment square; inner its central band, where courses
// start so that they stay inside the field.
func (c Base) region() geom.Rect { return geom.Square(c.RegionSide) }

func (c Base) inner() geom.Rect {
	return geom.NewRect(0.15*c.RegionSide, 0.15*c.RegionSide, 0.85*c.RegionSide, 0.85*c.RegionSide)
}

// duePump is the harness's clock driver, on the protocol Service.Advance
// runs. Per tick it pops every query with a period boundary at or before t —
// in the scheduler's deterministic (due, id) order — drains each popped
// query's due periods on a dispatch worker, the worker's schedule re-arms
// collecting in its own batch, and flushes the batches once the fan-out is
// done. A tick on which nothing is due (most of them, at Tick << Period) is
// the scheduler's one-load idle check. The pump owns the pop scratch and the
// batches so steady-state ticks do not allocate; one pump drives one engine
// from one goroutine.
type duePump struct {
	eng    *core.QueryEngine
	due    []core.DueEntry
	rearms []*core.RearmBatch // one per dispatch worker
}

func newDuePump(eng *core.QueryEngine) *duePump {
	p := &duePump{eng: eng, rearms: make([]*core.RearmBatch, eng.Workers())}
	for i := range p.rearms {
		p.rearms[i] = eng.NewRearmBatch()
	}
	return p
}

// tick advances the pump to virtual time t, calling step once per due
// boundary of each popped query, in ascending boundary order, with the batch
// its evaluation must re-arm into. step reports whether draining this query
// may continue; returning false (the evaluation refused) stops its loop.
// step runs concurrently for distinct queries and must only touch q's own
// owner and driver state that is itself safe to share.
func (p *duePump) tick(t sim.Time, step func(q *core.Query, boundary sim.Time, rb *core.RearmBatch) bool) {
	p.due = p.eng.PopDue(t, p.due[:0])
	due := p.due
	p.eng.DispatchWorkers(len(due), func(worker, i int) {
		q := due[i].Query
		for {
			_, boundary := q.NextDue()
			if boundary > t || !step(q, boundary, p.rearms[worker]) {
				return
			}
		}
	})
	for _, rb := range p.rearms {
		p.eng.FlushRearms(rb)
	}
}

// user is one mobile user of a scenario: ground truth and predictions, drawn
// serially up front so that every arm sees the same workload and no pass
// order or dispatch interleaving can change what a user does.
type user struct {
	id uint32
	// pos is the ground-truth position at virtual time t.
	pos func(t sim.Time) geom.Point
	// plan synthesizes the exact prediction a planned arm starts from, and
	// re-plans to, at time t. Nil for users whose predictions arrive as a
	// stream: they bootstrap from standing still.
	plan func(t sim.Time) mobility.Profile
	// exact and noisy are the user's predicted-profile streams, in delivery
	// order; an arm picks one.
	exact, noisy []mobility.TimedProfile
	// A churner joins on the first tick past joinAt and leaves on the first
	// at or past leaveAt; everyone else is resident from t = 0.
	churner         bool
	joinAt, leaveAt sim.Time

	pass
}

// pass is a user's state within one arm, zeroed before each: the query,
// stored in place, its serve path, membership, and the ledger.
type pass struct {
	q            core.Query
	path         servepath.Path
	joined, gone bool

	evals, late, warm, stale, prefetched, fresh int
	stalenessSum                                time.Duration
	peakOut                                     int
	// Evaluated periods per serve class, and the wall nanoseconds of every
	// period's serve from path.Before through path.After.
	classes [obs.NumClasses]int
	serveNs int64
	digest  uint64
	folded  [10]uint64 // fold scratch
}

// arm is one pass over the shared workload: which serve machinery every
// query is attached to.
type arm struct {
	label string
	strat prefetch.Strategy
	// noisy plans from the users' noisy profile stream instead of the exact
	// one. lookahead > 0 adds a corridor cache staging that many boundaries
	// ahead under a prediction-error bound of `bound` meters.
	noisy     bool
	lookahead int
	bound     float64
	// pyramid serves through one tile pyramid shared by the pass; window is
	// the lookback depth of every query.
	pyramid bool
	window  int
	// residents leaves the churners out.
	residents bool
}

// workload is a scenario reduced to data: the field and contract, the users
// in draw order, the arms, and what of a period folds into the digest.
type workload struct {
	Base
	// Every arm shares where the nodes sit and when each samples: node i
	// refreshes its reading every SamplePeriod, at its own phase.
	nodePos []geom.Point
	sampler core.Sampler

	users []*user
	arms  []arm
	// cell is the engine's index cell size.
	cell float64
	// replans is how many ground-truth re-plans every user issues, spread
	// evenly over the run.
	replans int
	// fold appends the values of one period that the digest covers.
	fold func(wr *core.WindowResult, v []uint64) []uint64
}

// newWorkload seeds the scenario's random stream and draws the node
// placement and then the sampling phases from it, in that order — the draw
// order the digests are pinned to. The scenario draws its users from the
// returned stream afterwards.
func newWorkload(c Base) (*workload, *rand.Rand) {
	rng := rand.New(rand.NewSource(c.Seed))
	w := &workload{Base: c, nodePos: make([]geom.Point, c.Nodes), cell: c.Radius}
	region := c.region()
	for i := range w.nodePos {
		w.nodePos[i] = region.UniformPoint(rng)
	}
	phase := make([]sim.Time, c.Nodes)
	for i := range phase {
		phase[i] = time.Duration(rng.Int63n(int64(c.SamplePeriod)))
	}
	w.sampler = core.ScheduleSampler(c.SamplePeriod, func(id int32) sim.Time { return phase[id] })
	return w, rng
}

// foldContract is the per-period outcome under the temporal contract.
func foldContract(wr *core.WindowResult, v []uint64) []uint64 {
	return append(v, uint64(wr.K), math.Float64bits(wr.Data.Value(core.AggAvg)), uint64(wr.Lateness), uint64(wr.MaxStaleness))
}

// foldPlanned adds what a prefetch plan can change.
func foldPlanned(wr *core.WindowResult, v []uint64) []uint64 {
	v = append(foldContract(wr, v), uint64(wr.Prefetched))
	if wr.Warmup {
		v = append(v, 1)
	}
	return v
}

// Outcome is one arm's ledger over the shared workload. Fields a scenario's
// arms cannot move stay zero.
type Outcome struct {
	// Label names the arm; Strategy is its planner strategy (zero for
	// on-demand; Greedy's default lookahead resolved).
	Label    string
	Strategy prefetch.Strategy

	// Evaluations counts delivered periods; Late those past the deadline
	// slack; WarmupPeriods those inside an equation-16 warmup interval.
	Evaluations   int
	Late          int
	WarmupPeriods int

	// StaleExclusions counts in-area readings rejected by the freshness
	// window; PrefetchedReadings those served from the plan; MeanFresh is
	// the mean number of contributing sensors per period and MeanStaleness
	// the mean age of each period's oldest contributing reading.
	StaleExclusions    int
	PrefetchedReadings int
	MeanFresh          float64
	MeanStaleness      time.Duration

	// PeakOutstanding is the largest per-user count of dispatched,
	// unconsumed chains — the live equation-11/12 storage metric.
	PeakOutstanding int

	// StagedHits counts periods served warm from a corridor stage,
	// PyramidServes those answered by tile decomposition, ColdEvaluations
	// those served by the cold index scan; the three partition Evaluations.
	// Mispredicts counts boundaries whose actual position escaped the
	// corridor; Replans profile replacements (predictor deliveries, injected
	// re-plans, mispredict corrections).
	StagedHits      int
	PyramidServes   int
	ColdEvaluations int
	Mispredicts     int
	Replans         int

	// ServeNs is the mean wall nanoseconds per delivered period of the whole
	// serve, path.Before through path.After, so whatever staging or planning
	// a serve path does is charged to the periods that pay for it. Wall
	// time: reported, never part of the digest.
	ServeNs float64

	// Joins and Leaves count churner arrivals and departures that actually
	// happened; PeakLive is the largest concurrent population.
	Joins    int
	Leaves   int
	PeakLive int

	// Index is the shared pyramid's own ledger (zero for the flat arms).
	Index pyramid.Stats

	// Digest is an order-independent digest of every resident user's
	// per-period outcome values — never the serve route, which must not
	// change them. Identical configurations agree on it whatever Shards and
	// Workers are, and arms a scenario declares equivalent agree with one
	// another.
	Digest uint64
}

// Result is a scenario's arms in table order, and the wall time of running
// them.
type Result struct {
	Arms    []Outcome
	Elapsed time.Duration
}

// Arm returns the outcome with the given label, by value.
func (r Result) Arm(label string) (Outcome, bool) {
	for _, a := range r.Arms {
		if a.Label == label {
			return a, true
		}
	}
	return Outcome{}, false
}

// run executes every arm over the workload.
func (w *workload) run() (Result, error) {
	var res Result
	start := time.Now()
	for _, a := range w.arms {
		out, err := w.runPass(a)
		if err != nil {
			return Result{}, err
		}
		res.Arms = append(res.Arms, out)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runPass runs one arm: a fresh engine over the shared field (the sampling
// schedule installed, every node indexed), every user registered with a
// serve path attached per the arm, and the clock advanced tick by tick. Only
// users with a period due on a tick are touched, and each user's evaluation
// is a pure function of the shared field and their own course, predictions,
// plan and cache, so the worker fan-out cannot change results.
func (w *workload) runPass(a arm) (Outcome, error) {
	eng, err := core.NewQueryEngineE(w.region(), w.cell, w.Field, core.EngineConfig{Shards: w.Shards, Workers: w.Workers})
	if err != nil {
		return Outcome{}, err
	}
	eng.SetSampler(w.sampler)
	eng.Dispatch(len(w.nodePos), func(i int) {
		eng.UpsertNode(radio.NodeID(i), w.nodePos[i])
	})
	cfg := servepath.Config{
		Strategy:  a.strat,
		Lookahead: a.lookahead,
		Model:     corridor.ErrorModel{Base: a.bound},
		Radius:    w.Radius,
		Period:    w.Period,
		Deadline:  w.Deadline,
		Fresh:     w.Fresh,
		Sleep:     w.SamplePeriod,
		Sampler:   w.sampler,
		Grid:      eng.Index(),
	}
	if a.pyramid {
		cfg.Pyramid, err = pyramid.New(eng.Index(), pyramid.Config{Fresh: w.Fresh, Sample: w.sampler, Field: w.Field})
		if err != nil {
			return Outcome{}, err
		}
	}
	spec := core.TemporalSpec{Period: w.Period, Deadline: w.Deadline, Fresh: w.Fresh, Window: a.window}
	// join registers u at virtual time at, periods counted from there.
	join := func(u *user, at sim.Time) (err error) {
		pos := u.pos(at)
		u.joined = true
		if err = eng.RegisterQuery(&u.q, u.id, w.Radius, pos, spec, at, u); err != nil {
			return err
		}
		prof := mobility.Profile{Path: mobility.Stationary(pos, at), TS: at, Generated: at}
		if u.plan != nil {
			prof = u.plan(at)
		}
		stream := u.exact
		if a.noisy {
			stream = u.noisy
		}
		c := cfg
		c.T0 = at
		return u.path.Attach(&u.q, c, pos, prof, stream)
	}

	out := Outcome{Label: a.label, Strategy: a.strat}
	live := 0
	for _, u := range w.users {
		u.pass = pass{}
		if !u.churner {
			if err := join(u, 0); err != nil {
				return Outcome{}, err
			}
			live++
		}
	}
	out.PeakLive = live

	var replanEvery sim.Time
	if w.replans > 0 {
		replanEvery = w.Duration / sim.Time(w.replans+1)
	}
	replansDone := 0

	var now sim.Time
	step := func(q *core.Query, due sim.Time, rb *core.RearmBatch) bool {
		u := q.Owner().(*user)
		start := time.Now()
		u.path.Before(due)
		pos := u.pos(due)
		u.q.Lock()
		wr, ok := u.q.EvaluateDueAt(pos, now, rb)
		u.q.Unlock()
		if !ok {
			u.serveNs += time.Since(start).Nanoseconds()
			return false
		}
		class, _ := u.path.After(&wr, pos)
		u.serveNs += time.Since(start).Nanoseconds()
		u.evals++
		u.classes[class]++
		u.fresh += wr.Data.Count
		u.stale += wr.StaleNodes
		u.prefetched += wr.Prefetched
		u.stalenessSum += wr.MaxStaleness
		if wr.Late {
			u.late++
		}
		if wr.Warmup {
			u.warm++
		}
		if n := u.path.Outstanding(wr.Due); n > u.peakOut {
			u.peakOut = n
		}
		// The per-user fold is ordered (periods are); the cross-user fold
		// below is a wrapping sum, so worker finish order cannot leak into
		// the digest.
		for _, v := range w.fold(&wr, u.folded[:0]) {
			u.digest = u.digest*1099511628211 ^ v
		}
		return true
	}
	pump := newDuePump(eng)
	for now = w.Tick; now <= w.Duration; now += w.Tick {
		// Membership changes first: arrivals register with periods counted
		// from their join tick, departures free their ids immediately.
		for _, u := range w.users {
			if !u.churner || u.gone || a.residents {
				continue
			}
			if !u.joined && u.joinAt < now {
				if err := join(u, now); err != nil {
					return Outcome{}, err
				}
				out.Joins++
				live++
			}
			if u.joined && u.leaveAt <= now {
				u.gone = true
				u.q.Deregister()
				out.Leaves++
				live--
			}
		}
		if live > out.PeakLive {
			out.PeakLive = live
		}
		// Ground-truth re-plans: the correction is exact, so what one costs
		// is the restarted equation-16 warmup.
		if replanEvery > 0 && replansDone < w.replans && now >= sim.Time(replansDone+1)*replanEvery {
			replansDone++
			for _, u := range w.users {
				if u.joined && !u.gone {
					u.path.Replan(u.plan(now), now)
				}
			}
		}
		pump.tick(now, step)
	}

	var stalenessSum time.Duration
	var fresh int
	var classes [obs.NumClasses]int
	var serveNs int64
	for _, u := range w.users {
		out.Evaluations += u.evals
		out.Late += u.late
		out.WarmupPeriods += u.warm
		out.StaleExclusions += u.stale
		out.PrefetchedReadings += u.prefetched
		fresh += u.fresh
		stalenessSum += u.stalenessSum
		if u.peakOut > out.PeakOutstanding {
			out.PeakOutstanding = u.peakOut
		}
		for c := range classes {
			classes[c] += u.classes[c]
		}
		serveNs += u.serveNs
		if st, ok := u.path.Stats(); ok {
			out.Strategy = st.Strategy
			out.Replans += st.Replans
			out.Mispredicts += int(st.CorridorMispredicts)
		}
		if !u.churner {
			out.Digest += (u.digest | 1) * uint64(u.id)
		}
	}
	out.StagedHits = classes[obs.ClassCorridor]
	out.PyramidServes = classes[obs.ClassPyramid]
	out.ColdEvaluations = classes[obs.ClassCold] + classes[obs.ClassPlanned]
	if out.Evaluations > 0 {
		out.MeanFresh = float64(fresh) / float64(out.Evaluations)
		out.MeanStaleness = stalenessSum / time.Duration(out.Evaluations)
		out.ServeNs = float64(serveNs) / float64(out.Evaluations)
	}
	if cfg.Pyramid != nil {
		out.Index = cfg.Pyramid.Stats()
	}
	return out, nil
}
