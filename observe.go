package mobiquery

import (
	"runtime"
	"time"

	"mobiquery/internal/obs"
)

// MetricsRegistry is the service's metrics registry (see Service.Metrics):
// internal/obs.Registry re-exported so front-ends outside the module
// internals (internal/server, custom embedders) can register their own
// families into the same /metrics exposition.
type MetricsRegistry = obs.Registry

// PeriodSpan is one traced subscription period's lifecycle record (see
// Subscription.TraceSpans): stage timestamps from armed through
// delivered/dropped, the serve class, and the outcome.
type PeriodSpan = obs.PeriodSpan

// TraceID is a caller-minted trace context identifying one subscription's
// causal trace across tiers (QuerySpec.Trace); zero means untraced.
type TraceID = obs.TraceID

// SpanID identifies one period's span within a trace; see MintSpanID.
type SpanID = obs.SpanID

// MintSpanID derives the deterministic span id for period k of a trace —
// both tiers (and offline validators) recompute it rather than carry it.
func MintSpanID(t TraceID, k int) SpanID { return obs.MintSpanID(t, k) }

// Metrics returns the service's metrics registry. Every Service carries
// one; render it with WritePrometheus (the server's GET /metrics does).
// The registry is safe for concurrent use, and additional families may be
// registered into it at any time.
func (s *Service) Metrics() *MetricsRegistry { return s.obs.reg }

// svcObs is the service's instrumentation: every hot-path metric is
// registered once at Open, so the record paths are bare atomic updates —
// Advance at one million idle subscribers stays 0-alloc with all of this
// enabled (bench-idle-1m is the proof).
type svcObs struct {
	reg *obs.Registry

	// Advance stage timings and tick counters (recorded live in Advance).
	ticks      *obs.Counter
	idleTicks  *obs.Counter
	stagePop   *obs.Histogram
	stageEval  *obs.Histogram
	stageFlush *obs.Histogram
	popBatch   *obs.Histogram

	// Per-serve-class evaluation ledger: Subscription.serve records into
	// its dispatch worker's lane, and Advance folds the lanes in once per
	// step (lane.fold). The classes partition evaluated periods: their
	// counters sum to delivered + dropped, which the loopback
	// reconciliation test pins.
	classCount [obs.NumClasses]*obs.Counter
	classEval  [obs.NumClasses]*obs.Histogram
}

// obsMaxStage bounds the stage-latency histograms: anything past ~64 s of
// wall time in one stage lands in the +Inf bucket.
const obsMaxStage = int64(64 * time.Second)

// newSvcObs registers the service's metric families and the scrape-time
// ledger sampler. Called once from Open, after the engine exists.
func newSvcObs(s *Service) *svcObs {
	reg := obs.NewRegistry()
	o := &svcObs{reg: reg}

	o.ticks = reg.Counter("mobiquery_advance_ticks_total", "",
		"Advance calls (clock steps), idle or not")
	o.idleTicks = reg.Counter("mobiquery_advance_idle_ticks_total", "",
		"Advance calls on which no period was due")
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("mobiquery_advance_stage_seconds", `stage="`+name+`"`,
			"wall time per Advance stage: pop (due-batch collection), evaluate (the fan-out: each worker evaluates its subscriptions' due periods and delivers them), flush (schedule re-arms, then each dispatch worker's counts, evaluation latencies and spans folded into the service's)",
			obsMaxStage, 1e-9)
	}
	o.stagePop = stage("pop")
	o.stageEval = stage("evaluate")
	o.stageFlush = stage("flush")
	o.popBatch = reg.Histogram("mobiquery_advance_pop_batch", "",
		"subscriptions popped due per non-empty Advance step", 1<<21, 1)

	for c := obs.Class(0); c < obs.NumClasses; c++ {
		lbl := `class="` + c.String() + `"`
		o.classCount[c] = reg.Counter("mobiquery_periods_evaluated_total", lbl,
			"periods evaluated by serve class; classes partition, so the sum equals delivered + dropped")
		o.classEval[c] = reg.Histogram("mobiquery_evaluate_seconds", lbl,
			"per-period engine evaluation latency by serve class", obsMaxStage, 1e-9)
	}

	// The delivery ledger and the schedule's length are sampled just in time
	// for each scrape from the same Stats snapshot /v1/stats is served from,
	// so the two surfaces always reconcile exactly.
	nowG := reg.Gauge("mobiquery_virtual_time_ns", "", "service virtual clock, nanoseconds")
	nodesG := reg.Gauge("mobiquery_nodes", "", "sensor nodes in the field")
	subsG := reg.Gauge("mobiquery_subscribers", "", "live subscriptions")
	drainG := reg.Gauge("mobiquery_draining", "", "1 while the service is draining")
	opened := reg.Counter("mobiquery_subscriptions_opened_total", "", "subscriptions opened over the service lifetime")
	closed := reg.Counter("mobiquery_subscriptions_closed_total", "", "subscriptions closed over the service lifetime")
	delivered := reg.Counter("mobiquery_results_delivered_total", "", "results handed to subscriber channels")
	dropped := reg.Counter("mobiquery_results_dropped_total", "", "results discarded against full subscriber buffers")
	late := reg.Counter("mobiquery_results_late_total", "", "results delivered past their deadline slack")
	pyrClassesG := reg.Gauge("mobiquery_pyramid_classes", "", "aggregate-pyramid boundary classes instantiated")
	pyrServes := reg.Counter("mobiquery_pyramid_serves_total", "", "periods answered from the aggregate tile pyramid")
	pyrBuilds := reg.Counter("mobiquery_pyramid_builds_total", "", "pyramid epoch ingests")
	colBuilds := reg.Counter("mobiquery_reading_column_builds_total", "",
		"reading columns built: one per popped boundary whose queries, by their radii, will read every node about twice over")
	colScans := reg.Counter("mobiquery_reading_column_scans_total", "",
		"evaluations that folded their nodes through a reading column instead of deriving each reading")
	schedLenG := reg.Gauge("mobiquery_sched_entries", "", "armed schedule entries (one per live temporal query)")

	// Go runtime self-metrics and the span-firehose ledger ride the same
	// scrape-time sampler: sampled just in time for each scrape, costing
	// the running service nothing between scrapes.
	heapG := reg.Gauge("mobiquery_go_heap_inuse_bytes", "", "heap bytes in in-use spans (runtime MemStats HeapInuse)")
	gcPause := reg.Counter("mobiquery_go_gc_pause_ns_total", "", "cumulative GC stop-the-world pause, nanoseconds")
	goroutinesG := reg.Gauge("mobiquery_go_goroutines", "", "live goroutines")
	gomaxprocsG := reg.Gauge("mobiquery_go_gomaxprocs", "", "effective GOMAXPROCS")
	buildInfo := reg.Gauge("mobiquery_build_info",
		`go_version="`+runtime.Version()+`",module="mobiquery"`,
		"constant 1, labeled with build metadata")
	buildInfo.Set(1)
	spansPub := reg.Counter("mobiquery_trace_spans_published_total", "",
		"period spans published to the service span firehose")
	spansDrop := reg.Counter("mobiquery_trace_spans_dropped_total", "",
		"firehose spans overwritten before any reader snapshotted them")

	var ms runtime.MemStats
	reg.OnScrape(func() {
		runtime.ReadMemStats(&ms)
		heapG.Set(int64(ms.HeapInuse))
		gcPause.Set(ms.PauseTotalNs)
		goroutinesG.Set(int64(runtime.NumGoroutine()))
		gomaxprocsG.Set(int64(runtime.GOMAXPROCS(0)))
		pub, drop := s.spans.Counts()
		spansPub.Set(pub)
		spansDrop.Set(drop)
	})

	reg.OnScrape(func() {
		st := s.Stats()
		nowG.Set(int64(st.Now))
		nodesG.Set(int64(st.Nodes))
		subsG.Set(int64(st.Subscribers))
		if st.Draining {
			drainG.Set(1)
		} else {
			drainG.Set(0)
		}
		opened.Set(st.Opened)
		closed.Set(st.Closed)
		delivered.Set(st.Delivered)
		dropped.Set(st.Dropped)
		late.Set(st.Late)
		pyrClassesG.Set(int64(st.PyramidClasses))
		pyrServes.Set(st.PyramidServes)
		pyrBuilds.Set(st.PyramidBuilds)
		// Straight from the engine: ServiceStats, and with it /v1/stats and
		// its wire form, does not carry the column counters.
		col := s.engine.ColumnStats()
		colBuilds.Set(col.Builds)
		colScans.Set(col.Scans)
		schedLenG.Set(int64(st.SchedLen))
	})
	return o
}
