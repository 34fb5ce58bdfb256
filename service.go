package mobiquery

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/obs"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
)

// pyramidMinRadiusCells is the attach threshold for the aggregate tile
// pyramid: an on-demand subscription uses the pyramid when its query radius
// spans at least this many index cells (or it asked for a lookback Window).
// Below it the disk covers too few cells for tile decomposition to beat the
// flat scan it would replace.
const pyramidMinRadiusCells = 6

// NetworkConfig describes the sensor field a Service runs over: how many
// nodes, where, what they measure, and how often each refreshes its
// reading. Construct with DefaultNetworkConfig and override as needed.
type NetworkConfig struct {
	// Seed makes node placement and sampling phases reproducible.
	Seed int64
	// Nodes sensors are deployed uniformly over a RegionSide × RegionSide
	// square (m).
	Nodes      int
	RegionSide float64
	// SamplePeriod is how often each sensor refreshes its reading — the
	// duty-cycle analogue the freshness window is measured against. Nodes
	// sample out of phase with one another (deterministically from Seed)
	// unless WithAlignedSampling is given. Zero selects 1 s.
	SamplePeriod time.Duration
	// Field is what the sensors measure. Nil selects UniformField(20),
	// the paper's default reading.
	Field Field
	// Service sizes the concurrent query engine.
	Service ServiceConfig
}

// DefaultNetworkConfig returns the paper's Section 6.1 field: 200 nodes
// over 450 m × 450 m, sampling once per second.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Seed:         1,
		Nodes:        200,
		RegionSide:   450,
		SamplePeriod: time.Second,
	}
}

// Validate reports configuration errors without opening anything.
func (nc NetworkConfig) Validate() error {
	switch {
	case nc.Nodes <= 0:
		return fmt.Errorf("mobiquery: network Nodes must be positive, got %d", nc.Nodes)
	case nc.RegionSide <= 0:
		return fmt.Errorf("mobiquery: network RegionSide must be positive, got %v", nc.RegionSide)
	case nc.SamplePeriod < 0:
		return fmt.Errorf("mobiquery: network SamplePeriod must be non-negative, got %v", nc.SamplePeriod)
	case nc.Service.Shards < 0 || nc.Service.Workers < 0:
		return fmt.Errorf("mobiquery: service Shards and Workers must be non-negative")
	}
	return nil
}

func (nc NetworkConfig) withDefaults() NetworkConfig {
	if nc.SamplePeriod == 0 {
		nc.SamplePeriod = time.Second
	}
	if nc.Field == nil {
		nc.Field = UniformField(20)
	}
	return nc
}

// serviceOptions collects the Open options.
type serviceOptions struct {
	buffer        int
	aligned       bool
	tick          time.Duration
	traceDepth    int
	firehoseDepth int
}

// Option customizes an opened Service.
type Option func(*serviceOptions)

// WithResultBuffer sets the per-subscription result channel capacity
// (default 16). When a subscriber falls behind and its buffer fills, new
// results are dropped and counted in SubscriptionStats.Dropped rather than
// stalling the service.
func WithResultBuffer(n int) Option {
	return func(o *serviceOptions) { o.buffer = n }
}

// WithAlignedSampling makes every node sample in phase, at exact multiples
// of NetworkConfig.SamplePeriod. Staleness then becomes an exact function
// of the deadline alone, which the Example tests rely on; the default
// (per-node random phases) is the realistic setting.
func WithAlignedSampling() Option {
	return func(o *serviceOptions) { o.aligned = true }
}

// WithTraceDepth sets how many recent period lifecycle spans each
// subscription's trace ring retains (default 16; see
// Subscription.TraceSpans). 0 drops only that ring: every period still
// builds its span for the service firehose (WithSpanFirehose) and a traced
// result. The ring's storage is allocated once at Subscribe and its header
// lives in the Subscription, so it adds nothing to the Advance hot path's
// allocation count at any depth; a period records into it under the
// subscription's own lock, which no other subscription's period takes.
func WithTraceDepth(n int) Option {
	return func(o *serviceOptions) {
		if n < 0 {
			n = 0
		}
		o.traceDepth = n
	}
}

// WithSpanFirehose sets how many completed period spans the service-wide
// span firehose ring retains (default 4096; see Service.FirehoseSpans and
// the server's GET /v1/trace). The firehose is deliberately lossy: at
// capacity the oldest span is overwritten and counted dropped, so slow
// readers never back-pressure the tick path. 0 disables it.
func WithSpanFirehose(n int) Option {
	return func(o *serviceOptions) {
		if n < 0 {
			n = 0
		}
		o.firehoseDepth = n
	}
}

// WithRealTime drives the service clock from the wall clock: every tick of
// real time, virtual time advances to the wall time elapsed since Open, so
// subscriptions stream results without explicit Advance calls, and a step
// that overruns its tick is caught up at the next one rather than lost.
// Without this option the clock is manual — the caller advances it with
// Service.Advance, which is exactly reproducible and is what tests and the
// extension figures use.
func WithRealTime(tick time.Duration) Option {
	return func(o *serviceOptions) { o.tick = tick }
}

// Service is a live MobiQuery session: a concurrent query engine
// standing over a sensor field, accepting streaming query subscriptions
// from mobile users while it runs. Open it once; Subscribe and Close
// subscriptions freely while other subscribers keep streaming — one
// subscriber's churn never changes another's results.
//
// The service runs on virtual time. By default the clock is manual
// (Advance); WithRealTime ties it to the wall clock. All methods are safe
// for concurrent use.
type Service struct {
	cfg    NetworkConfig
	opts   serviceOptions
	cell   float64
	engine *core.QueryEngine

	// sample is the node sampling schedule, shared by the engine, every
	// pyramid class and every planned subscription: node i samples every
	// SamplePeriod, at phase 0 under aligned sampling and otherwise at
	// phases[i], a deterministic offset in [0, SamplePeriod). Nodes are fixed
	// at Open, so the hash behind the offsets runs once per node rather than
	// once per node per evaluation.
	sample core.Sampler
	phases []time.Duration

	// obs is the service's instrumentation: metric families registered at
	// Open so every hot-path record is a bare atomic update (observe.go).
	obs *svcObs

	// spans is the service-wide span firehose every completed period span
	// is published into (FirehoseSpans, GET /v1/trace); nil when opened
	// with WithSpanFirehose(0). Ring-buffered and drop-counted — publish
	// never allocates or blocks on a reader. The dispatch workers publish
	// their lanes' span batches, one lock hold per batch.
	spans *obs.SpanSink

	// pyramids holds one aggregate tile pyramid per boundary class — the
	// (period, freshness, phase) tuple whose subscriptions share the exact
	// same period-boundary instants, and therefore the same epochs. Guarded
	// by mu; entries live for the life of the service (classes are few, and
	// each pyramid holds one epoch). Advance is each pyramid's one writer: it
	// ingests the epoch of every popped boundary before the fan-out.
	pyramids map[pyrKey]*pyramid.Pyramid

	// mu guards the clock, the id counter, the pyramid classes, and the
	// closed/draining flags; Subscribe holds it throughout, so a subscription
	// is fully wired before any later Advance or Close can reach it. The live
	// subscriptions themselves are the engine's query registry, each query
	// owned by its Subscription. Evaluation runs outside mu, so Subscribe and
	// read-only introspection never wait on an in-flight Advance batch, and
	// closing a subscription does not take it at all.
	mu       sync.RWMutex
	now      time.Duration
	nextID   uint32
	closed   bool
	draining bool
	stop     chan struct{}
	// stopCtx detaches the service from the Open context; nil when that
	// context can't end, or has ended already.
	stopCtx func() bool

	// Lifetime delivery totals across every subscription, live or closed
	// (ServiceStats). Atomics, read without a lock: Subscribe and close
	// count opened and closed; the delivery totals are written only by
	// Advance, which folds each dispatch worker's lane into them once per
	// step (lane.fold), never per period.
	totOpened    atomic.Uint64
	totClosed    atomic.Uint64
	totDelivered atomic.Uint64
	totDropped   atomic.Uint64
	totLate      atomic.Uint64

	// advMu serializes Advance calls (the clock moves one step at a time)
	// and guards the scratch buffers below, which are reused across steps
	// so a steady-state Advance allocates nothing on the scheduling path:
	// the popped batch, and one lane per dispatch worker (created on the
	// first non-empty step).
	advMu sync.Mutex
	due   []core.DueEntry
	lanes []*lane
}

// laneSpans is how many completed period spans a lane batches before it
// publishes them to the firehose: a few hundred, so one lock hold carries
// that many spans while a lane's batch stays at ~24 KB.
const laneSpans = 256

// lane is one dispatch worker's private ledger for the Advance steps: its
// schedule re-arms, its periods and evaluation latencies by serve class,
// its delivered, dropped and late counts, and a batch of completed spans.
// The worker's Subscription.step and serve write only to their lane, so no
// period of the fan-out writes memory, or takes a lock, that another worker
// uses. After the fan-out, Advance flushes each lane's re-arms and folds
// the rest into the service-wide metrics, totals and firehose (fold);
// every total is folded before Advance returns. A lane whose span batch
// fills mid-step publishes it at once (publish): a subscription's periods
// of one step all go to one lane, so the firehose keeps each
// subscription's spans in ascending K.
type lane struct {
	rb        *core.RearmBatch
	periods   [obs.NumClasses]uint64
	eval      [obs.NumClasses]*obs.Histogram // the geometry of svcObs.classEval
	delivered uint64
	dropped   uint64
	late      uint64
	// spans is the batch not yet published to sink, with room for
	// laneSpans; nil when the firehose is disabled, so the lane buffers
	// nothing.
	sink  *obs.SpanSink
	spans []obs.PeriodSpan
}

func newLane(rb *core.RearmBatch, sink *obs.SpanSink) *lane {
	l := &lane{rb: rb, sink: sink}
	for c := range l.eval {
		l.eval[c] = obs.NewHistogram(obsMaxStage, 1e-9)
	}
	if sink != nil {
		l.spans = make([]obs.PeriodSpan, 0, laneSpans)
	}
	return l
}

// queue adds a completed span to the batch, publishing the batch once it
// is full.
func (l *lane) queue(sp *obs.PeriodSpan) {
	if l.spans == nil {
		return
	}
	l.spans = append(l.spans, *sp)
	if len(l.spans) == cap(l.spans) {
		l.publish()
	}
}

// publish hands the batch to the firehose under one hold of its lock.
func (l *lane) publish() {
	l.sink.PublishBatch(l.spans)
	l.spans = l.spans[:0]
}

// fold merges the lane's counts, histograms and spans into the service's
// and leaves the lane empty for the next step. Advance calls it after the
// fan-out, when no worker writes the lane.
func (l *lane) fold(s *Service) {
	for c, n := range l.periods {
		if n != 0 {
			s.obs.classCount[c].Add(n)
			s.obs.classEval[c].Fold(l.eval[c])
			l.periods[c] = 0
		}
	}
	if l.delivered != 0 {
		s.totDelivered.Add(l.delivered)
		l.delivered = 0
	}
	if l.dropped != 0 {
		s.totDropped.Add(l.dropped)
		l.dropped = 0
	}
	if l.late != 0 {
		s.totLate.Add(l.late)
		l.late = 0
	}
	l.publish()
}

// Open stands up a Service over the configured sensor field. Configuration
// problems are reported as errors, never panics. The service is closed by
// Close or by cancellation of ctx.
func Open(ctx context.Context, nc NetworkConfig, opts ...Option) (*Service, error) {
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	o := serviceOptions{buffer: 16, traceDepth: 16, firehoseDepth: 4096}
	for _, opt := range opts {
		opt(&o)
	}
	if o.buffer <= 0 {
		return nil, fmt.Errorf("mobiquery: result buffer must be positive, got %d", o.buffer)
	}
	if o.tick < 0 {
		return nil, fmt.Errorf("mobiquery: real-time tick must be non-negative, got %v", o.tick)
	}
	nc = nc.withDefaults()

	region := geom.Square(nc.RegionSide)
	cell := nc.RegionSide / 32
	engine, err := core.NewQueryEngineE(region, cell, nc.Field,
		core.EngineConfig{Workers: nc.Service.Workers})
	if err != nil {
		return nil, err
	}

	s := &Service{
		cfg:      nc,
		opts:     o,
		cell:     cell,
		engine:   engine,
		pyramids: make(map[pyrKey]*pyramid.Pyramid),
		stop:     make(chan struct{}),
		spans:    obs.NewSpanSink(o.firehoseDepth),
	}
	phase := func(int32) time.Duration { return 0 }
	if !o.aligned {
		phases := make([]time.Duration, nc.Nodes)
		for i := range phases {
			phases[i] = samplePhase(nc.Seed, int32(i), nc.SamplePeriod)
		}
		s.phases = phases
		phase = func(id int32) time.Duration { return phases[id] }
	}
	s.sample = core.ScheduleSampler(nc.SamplePeriod, phase)
	engine.SetSampler(s.sample)
	s.obs = newSvcObs(s)

	// Node placement is one serial RNG drained in id order, so the field
	// depends only on the seed.
	rng := rand.New(rand.NewSource(nc.Seed))
	for i := 0; i < nc.Nodes; i++ {
		engine.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}

	if ctx != nil && ctx.Done() != nil {
		// No watcher goroutine: the context runs Close itself when it ends,
		// and Close detaches it when the service is closed first. A context
		// that has ended already may run Close before stop is stored; Close
		// then finds nothing to detach, which is right.
		stop := context.AfterFunc(ctx, func() { s.Close() })
		s.mu.Lock()
		s.stopCtx = stop
		s.mu.Unlock()
	}
	if o.tick > 0 {
		start := time.Now()
		t := time.NewTicker(o.tick)
		go func() {
			defer t.Stop()
			s.runClock(t.C, func() time.Duration { return time.Since(start) })
		}()
	}
	return s, nil
}

// samplePhase is node id's deterministic sampling offset in [0, period).
func samplePhase(seed int64, id int32, period time.Duration) time.Duration {
	return time.Duration(splitmix64(uint64(seed)^(uint64(uint32(id))+0x9E3779B97F4A7C15)) % uint64(period))
}

// pyrKey identifies a pyramid-sharing class of subscriptions: same period,
// same freshness window, and same boundary phase (subscription time modulo
// period), so every member's period boundaries land on identical instants
// and one epoch per boundary serves them all.
type pyrKey struct {
	period time.Duration
	fresh  time.Duration
	phase  time.Duration
}

// pyramidFor returns the boundary class's shared pyramid, creating it on
// first use. Caller holds s.mu.
func (s *Service) pyramidFor(period, fresh time.Duration) (*pyramid.Pyramid, error) {
	key := pyrKey{period: period, fresh: fresh, phase: s.now % period}
	if p := s.pyramids[key]; p != nil {
		return p, nil
	}
	p, err := pyramid.New(s.engine.Index(), pyramid.Config{
		Fresh:  fresh,
		Sample: s.sample,
		Field:  s.cfg.Field,
	})
	if err != nil {
		return nil, err
	}
	s.pyramids[key] = p
	return p, nil
}

// PyramidStats returns the service's aggregate-pyramid ledger summed across
// every boundary class, and the number of classes instantiated so far.
func (s *Service) PyramidStats() (PyramidStats, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pyramidTotalsLocked()
}

// pyramidTotalsLocked sums every boundary class's ledger. Caller holds
// s.mu (either mode); p.Stats() is pure atomics, so holding it is cheap.
func (s *Service) pyramidTotalsLocked() (PyramidStats, int) {
	var tot PyramidStats
	for _, p := range s.pyramids {
		st := p.Stats()
		tot.Builds += st.Builds
		tot.Served += st.Served
		tot.MissNoEpoch += st.MissNoEpoch
		tot.MissFreshness += st.MissFreshness
		tot.NodesIngested += st.NodesIngested
		tot.FringeNodes += st.FringeNodes
		tot.ServedAreaNodes += st.ServedAreaNodes
		tot.CoveredTiles += st.CoveredTiles
		tot.FringeCells += st.FringeCells
	}
	return tot, len(s.pyramids)
}

// splitmix64 is the SplitMix64 finalizer: a tiny, well-mixed integer hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// runClock is the real-time driver: on each fire it advances virtual time to
// the wall time elapsed since Open, until the service closes. A ticker drops
// the fires that come due while an Advance overruns its tick, so the next
// fire catches up on every tick lost rather than one.
func (s *Service) runClock(fire <-chan time.Time, elapsed func() time.Duration) {
	for {
		select {
		case <-s.stop:
			return
		case <-fire:
			if s.Advance(max(elapsed()-s.Now(), 0)) != nil {
				return
			}
		}
	}
}

// Now returns the service's current virtual time.
func (s *Service) Now() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// NodeCount returns the number of sensor nodes in the field.
func (s *Service) NodeCount() int { return s.engine.NodeCount() }

// Subscribers returns the number of live subscriptions — one engine query
// each. It is one atomic load, so introspection never blocks Subscribe or an
// in-flight Advance.
func (s *Service) Subscribers() int { return s.engine.QueryCount() }

// Subscription returns the open subscription with the given id, or nil. The
// engine's registry is the one id-keyed map of subscriptions: an id resolves
// from Subscribe until the subscription closes.
func (s *Service) Subscription(id uint32) *Subscription {
	if q := s.engine.Lookup(id); q != nil {
		return q.Owner().(*Subscription)
	}
	return nil
}

// Drain puts the service into drain mode: new Subscribe calls fail while
// every existing subscription keeps streaming until it ends on its own
// (Lifetime, Close, context) — the graceful half of a shutdown. The clock
// keeps running; call Close once Subscribers reaches zero (or a grace
// period expires) to finish. Drain is idempotent and cannot be undone.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// ServiceStats is a point-in-time aggregate of the service's delivery
// ledger: the live membership plus lifetime totals accumulated across
// every subscription the service has ever carried, including closed ones.
// The totals obey Delivered + Dropped == sum of evaluated periods, the
// same accounting SubscriptionStats keeps per subscription.
type ServiceStats struct {
	// Now is the service's current virtual time; Nodes the sensor count;
	// Subscribers the live subscription count; Draining whether Drain has
	// been called.
	Now         time.Duration
	Nodes       int
	Subscribers int
	Draining    bool
	// Opened and Closed count subscriptions over the service's lifetime.
	Opened uint64
	Closed uint64
	// Delivered, Dropped, and Late total the per-subscription ledgers:
	// results handed to Results channels, results discarded against full
	// buffers, and results delivered past their deadline slack.
	Delivered uint64
	Dropped   uint64
	Late      uint64
	// PyramidClasses counts the aggregate-pyramid boundary classes the
	// service has instantiated; PyramidServes and PyramidBuilds total their
	// served evaluations and epoch ingests (see Service.PyramidStats for
	// the full ledger).
	PyramidClasses int
	PyramidServes  uint64
	PyramidBuilds  uint64
	// SchedLen is the number of periods armed in the due-period schedule:
	// one per live subscription between Advance steps, so it equals
	// Subscribers on a quiescent service (a lost re-arm shows as a gap).
	SchedLen int
}

// Stats returns the service-wide delivery ledger. It takes only the clock's
// read lock, so introspection never blocks an in-flight Advance batch. The
// delivery totals are folded in once per Advance step, so they may trail
// the step in flight — by the periods it has delivered so far — but never a
// step that has returned. It allocates nothing, so the metrics scrape,
// /v1/stats and /healthz all snapshot through it.
func (s *Service) Stats() ServiceStats {
	s.mu.RLock()
	pt, classes := s.pyramidTotalsLocked()
	st := ServiceStats{
		Now:            s.now,
		Draining:       s.draining,
		PyramidClasses: classes,
		PyramidServes:  pt.Served,
		PyramidBuilds:  pt.Builds,
	}
	s.mu.RUnlock()
	st.Subscribers = s.engine.QueryCount()
	st.Nodes = s.engine.NodeCount()
	st.Opened = s.totOpened.Load()
	st.Closed = s.totClosed.Load()
	st.Delivered = s.totDelivered.Load()
	st.Dropped = s.totDropped.Load()
	st.Late = s.totLate.Load()
	st.SchedLen = s.engine.ScheduleLen()
	return st
}

// Advance moves the service's virtual clock forward by d and delivers
// every query period that came due, in deadline order within each
// subscription. A period evaluated after its deadline slack — because the
// clock jumped past it in one coarse step, or because a real-time service
// stalled — is delivered marked late. Advance is exactly reproducible:
// the same configuration and call sequence yields the same results.
//
// The cost of a step is O(due): the engine's due-period schedule hands back
// exactly the subscriptions with a period boundary at or before the new
// time, so a tick on which nothing is due returns in constant time no
// matter how many subscribers are idle. Due subscriptions are fanned across
// the engine's worker pool, and the worker that evaluates a period hands
// its result over before it moves on (Subscription.step): no period waits
// for another subscription's. Each worker keeps its schedule re-arms, its
// counts and its spans to itself; they are flushed and folded once after
// the fan-out, so every service-wide total is current when Advance returns.
// Every subscription has its own Results channel, so the order that is
// promised is the one a subscriber can observe: ascending K on each
// channel, byte-identical whatever the Workers configuration. No
// order is promised across subscriptions.
func (s *Service) Advance(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("mobiquery: cannot advance time backwards (%v)", d)
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("mobiquery: service is closed")
	}
	s.now += d
	now := s.now
	pyramids := len(s.pyramids) > 0 // a class made after this has no member due yet
	s.mu.Unlock()

	// Collect the due batch: one entry per subscription with a period
	// boundary reached, in (due, id) order. Nothing due — the common case
	// for a fine-grained clock over long-period queries — is a peek. The
	// stage stamps below are wall-clock reads and atomic histogram updates
	// only, so the instrumented idle path stays 0-alloc (bench-idle-1m).
	o := s.obs
	tickStart := time.Now()
	s.due = s.engine.PopDue(now, s.due[:0])
	popEnd := time.Now()
	o.ticks.Inc()
	o.stagePop.Observe(popEnd.Sub(tickStart).Nanoseconds())
	if len(s.due) == 0 {
		o.idleTicks.Inc()
		return nil
	}
	o.popBatch.Observe(int64(len(s.due)))
	poppedNS := popEnd.UnixNano()

	// Ingest each popped boundary's pyramid epoch serially, before the
	// fan-out, so every serve below only reads. A class's members share every
	// boundary instant, so a batch pops at most one per class; a catch-up
	// boundary served later in this step has no epoch and folds cold.
	if pyramids {
		for _, de := range s.due {
			if p := de.Query.Owner().(*Subscription).pyramid; p != nil {
				p.EnsureEpoch(de.Due)
			}
		}
	}

	// Fan the due subscriptions across the worker pool: a popped entry's
	// query handle is owned by its subscription (one closed since the pop
	// serves nothing). Each worker evaluates and delivers every period of
	// its subscription due by now and keeps its schedule re-arms and its
	// ledger in its own lane; subscriptions are independent, so the fan-out
	// cannot change results.
	if s.lanes == nil {
		s.lanes = make([]*lane, s.engine.Workers())
		for i := range s.lanes {
			s.lanes[i] = newLane(s.engine.NewRearmBatch(), s.spans)
		}
	}
	due, lanes := s.due, s.lanes
	s.engine.DispatchWorkers(len(due), func(worker, i int) {
		due[i].Query.Owner().(*Subscription).step(now, poppedNS, lanes[worker])
	})
	evalEnd := time.Now()
	o.stageEval.Observe(evalEnd.Sub(popEnd).Nanoseconds())
	// Flush the workers' deferred re-arms, one schedule lock hold per
	// worker, so the next PopDue sees every next boundary; then fold each
	// worker's ledger into the service's.
	for _, l := range lanes {
		s.engine.FlushRearms(l.rb)
		l.fold(s)
	}
	o.stageFlush.Observe(time.Since(evalEnd).Nanoseconds())
	// Zero the handles so a burst-sized batch doesn't pin closed
	// subscriptions for the life of the service; the capacity is kept.
	clear(s.due)
	return nil
}

// FirehoseSpans appends the service-wide span firehose's buffered period
// spans to buf, oldest first, and returns the result along with the
// lifetime published and dropped span counts as of the snapshot. The
// firehose sees every completed period of every subscription (traced or
// not), ring-buffered to the WithSpanFirehose depth; with the firehose
// disabled it returns buf unchanged and zero counts. Each dispatch worker
// publishes its spans per lane batch, before Advance returns, so the order
// is ascending K within each subscription and nothing more, and a snapshot
// taken during an Advance may miss spans of the step in flight. Safe for
// concurrent use with a running service.
func (s *Service) FirehoseSpans(buf []PeriodSpan) (spans []PeriodSpan, published, dropped uint64) {
	return s.spans.Snapshot(buf)
}

// Close shuts the service down: every subscription is closed (its Results
// channel drains then ends) and further Subscribe and Advance calls fail.
// Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	stop := s.stopCtx
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	// Subscribe registers under mu and refuses once closed is set, so the
	// engine's registry now holds every subscription there will ever be.
	for _, q := range s.engine.Queries() {
		q.Owner().(*Subscription).close()
	}
	return nil
}
