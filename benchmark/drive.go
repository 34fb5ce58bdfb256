package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"mobiquery"
)

// digestBoundaries is how many measured boundaries the correctness digest
// covers; reference runs stop after exactly this many.
const digestBoundaries = 20

// passSegments is how many equal consecutive segments a pass's boundaries
// are split into for the CPU metric, which is the median of the segments'.
// The wall-clock metrics go one step further and treat every boundary as
// its own segment.
const passSegments = 10

// passConfig selects how one pass over a workload runs.
type passConfig struct {
	Service mobiquery.ServiceConfig
	Options []mobiquery.Option
	// Trace sets QuerySpec.Trace on every subscription, so each result
	// echoes its PeriodSpan, and keeps the harness's own spans.
	Trace bool
	// InProcess drives a Network workload's plans through the session API
	// instead: the cross-tier digest reference.
	InProcess bool
	// The pass measures until Budget has elapsed, and in any case stops
	// after MaxBoundaries (the sample buffers are sized from it).
	Budget        time.Duration
	MaxBoundaries int
}

// target is what a pass drives: the service alone, or the service behind
// its network tier. One boundary is in flight at a time.
type target interface {
	// subscribe opens every plan of cohort s, in order.
	subscribe(s int, rec *recorder) error
	// boundary fires Advance number j and returns once every result of it
	// has reached its consumer (or is known lost).
	boundary(j int, rec *recorder) error
	close(rec *recorder) error
}

// recorder accumulates what one pass observes. Its buffers are allocated
// before timing starts so recording costs the measured loop no allocation.
type recorder struct {
	base      time.Time
	measuring bool
	trace     bool

	// Completeness ledger.
	expected int64
	failed   int64
	unclean  int64 // streams that ended without an end frame

	// Per-result lateness (ns) over the measured boundaries.
	lateness []uint32
	// Per-boundary: completion instant, process CPU time at completion,
	// periods completed, and the gap between the previous completion and
	// this fire (driver overhead).
	endNS   []int64
	cpuNS   []int64
	work    []int32
	fireGap []int64
	// Split of each boundary's wall time, summed.
	advanceNS, receiveNS int64

	measured int // boundaries fired while measuring
	digest   uint64

	// Serve accounting over the measured boundaries.
	warmupResults, corridorHits, pyramidHits int64
	moverResults, pyramidEligible            int64

	// Traced passes only: per-result segment samples (µs) and harness spans.
	segments [numSegments][]float32
	spans    []harnessSpan
}

func newRecorder(cfg passConfig, perBoundary int) *recorder {
	r := &recorder{
		base:     time.Now(),
		trace:    cfg.Trace,
		lateness: make([]uint32, 0, cfg.MaxBoundaries*perBoundary),
		endNS:    make([]int64, 0, cfg.MaxBoundaries),
		cpuNS:    make([]int64, 0, cfg.MaxBoundaries),
		work:     make([]int32, 0, cfg.MaxBoundaries),
		fireGap:  make([]int64, 0, cfg.MaxBoundaries),
	}
	if cfg.Trace {
		for i := range r.segments {
			r.segments[i] = make([]float32, 0, cfg.MaxBoundaries*perBoundary)
		}
	}
	return r
}

// now is nanoseconds since the pass began, on the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// wallNS converts a recorder instant to the wall-clock unix nanoseconds the
// program's PeriodSpan stamps use.
func (r *recorder) wallNS(ns int64) int64 { return r.base.UnixNano() + ns }

// result books one received result against the ledger. fireNS and recvNS
// are recorder instants; lateness is their difference.
func (r *recorder) result(id uint32, want int, q *mobiquery.QueryResult, fireNS, recvNS int64) {
	r.expected++
	if q.K != want || !q.OnTime {
		r.failed++
		return
	}
	if !r.measuring {
		return
	}
	late := recvNS - fireNS
	if late > int64(^uint32(0)) {
		late = int64(^uint32(0))
	}
	r.lateness = append(r.lateness, uint32(late))
	if r.measured < digestBoundaries {
		r.digest += resultDigest(id, q.K, q.Value, q.Contributors, q.AreaNodes, q.StaleNodes)
	}
	if q.Warmup {
		r.warmupResults++
	}
	if q.CorridorHit {
		r.corridorHits++
	}
	if q.PyramidHit {
		r.pyramidHits++
	}
	if r.trace && q.Trace != nil {
		r.segment(q.Trace, recvNS)
	}
}

// lost books a result that never arrived (or arrived unusable).
func (r *recorder) lost(n int64) {
	r.expected += n
	r.failed += n
}

// inProcess drives the session API directly: the consumer is a channel
// receive on the driver goroutine, made after Advance returns.
type inProcess struct {
	wl      *workload
	svc     *mobiquery.Service
	trace   bool
	cohorts [][]liveSub
	idx     []int
	repl    []plan
}

type liveSub struct {
	sub   *mobiquery.Subscription
	nextK int
	// mover and pyramid mark the warm serve path the plan is eligible for,
	// the denominators of the hit shares.
	mover, pyramid bool
}

func (t *inProcess) open(p plan, serial int) (liveSub, error) {
	if t.trace {
		p.Spec.Trace = traceID(t.wl.Seed, serial)
	}
	sub, err := t.svc.Subscribe(context.Background(), p.Spec, p.source())
	if err != nil {
		return liveSub{}, err
	}
	return liveSub{
		sub:     sub,
		nextK:   1,
		mover:   p.Spec.Corridor.Lookahead > 0,
		pyramid: !p.Spec.Strategy.Prefetching() && (p.Spec.Window > 1 || p.Spec.Radius >= 6*fieldSide/32),
	}, nil
}

// traceID mints the trace context of the serial-th subscription of a run.
func traceID(seed int64, serial int) mobiquery.TraceID {
	return mobiquery.TraceID(mix64(uint64(seed)<<32^uint64(serial)) | 1)
}

func (t *inProcess) subscribe(s int, rec *recorder) error {
	plans := t.wl.Cohorts[s]
	serial := 0
	for _, c := range t.wl.Cohorts[:s] {
		serial += len(c)
	}
	live := make([]liveSub, len(plans))
	start := rec.now()
	for i, p := range plans {
		ls, err := t.open(p, serial+i)
		if err != nil {
			return fmt.Errorf("subscribe %d of cohort %d: %w", i, s, err)
		}
		live[i] = ls
	}
	rec.span("subscribe", 0, start, rec.now(), len(plans))
	t.cohorts[s] = live
	return nil
}

func (t *inProcess) boundary(j int, rec *recorder) error {
	slots := len(t.cohorts)
	fire := rec.now()
	if err := t.svc.Advance(t.wl.Tick); err != nil {
		return err
	}
	adv := rec.now()
	if j < slots {
		return nil // set-up: later cohorts are not subscribed yet, nothing is due
	}
	due := t.cohorts[j%slots]
	last := adv
	for i := range due {
		ls := &due[i]
		select {
		case q, ok := <-ls.sub.Results():
			if !ok {
				rec.lost(1)
				continue
			}
			last = rec.now()
			rec.result(ls.sub.ID(), ls.nextK, &q, fire, last)
			ls.nextK++
			if rec.measuring {
				if ls.mover {
					rec.moverResults++
				}
				if ls.pyramid {
					rec.pyramidEligible++
				}
			}
		default:
			rec.lost(1)
		}
	}
	rec.boundaryDone(j, fire, adv, last, len(due))

	if t.wl.Churn > 0 {
		t.wl.churnPicks(j, len(due), t.idx, t.repl)
		start := rec.now()
		for _, i := range t.idx {
			due[i].sub.Close()
		}
		mid := rec.now()
		rec.span("close", j, start, mid, len(t.idx))
		for n, i := range t.idx {
			// Replacement serials only need to be distinct from the
			// originals' for the trace ids to be.
			ls, err := t.open(t.repl[n], 1<<24+j*t.wl.Churn+n)
			if err != nil {
				return fmt.Errorf("re-subscribe at boundary %d: %w", j, err)
			}
			due[i] = ls
		}
		rec.span("subscribe", j, mid, rec.now(), len(t.idx))
	}
	return nil
}

func (t *inProcess) close(*recorder) error { return t.svc.Close() }

// boundaryDone books one completed boundary: fire → Advance returned →
// last consumer holds its result.
func (r *recorder) boundaryDone(j int, fire, adv, last int64, periods int) {
	if r.trace {
		r.span("boundary", j, fire, last, periods)
		r.span("advance", j, fire, adv, periods)
		r.span("receive", j, adv, last, periods)
	}
	if !r.measuring {
		return
	}
	r.advanceNS += adv - fire
	r.receiveNS += last - adv
	r.work = append(r.work, int32(periods))
	r.measured++
}

// passResult is everything one pass measured.
type passResult struct {
	Boundaries int
	Periods    int64 // results the measured boundaries should have produced

	Setup       time.Duration
	BytesPerSub float64

	Expected, Failed int64 // ledger over the whole pass, warm-up included
	Digest           uint64

	Segments     []segmentStat // passSegments equal consecutive groups of boundaries
	PerBoundary  []segmentStat // each boundary on its own
	Samples      int           // lateness samples
	Mallocs      uint64
	GCCycles     uint32
	GCPause      time.Duration
	Goroutines   int // after teardown, minus before the pass
	FireGapP99US float64

	Stage   [4]float64 // pop, evaluate, flush, deliver: seconds
	Class   [4]uint64
	Rec     *recorder
	Pyramid mobiquery.PyramidStats
}

// The timing metrics are order statistics over parts of the pass, not
// means over the whole of it: on a shared machine a neighbour's burst or a
// collection cycle slows a stretch of boundaries, and a mean lets that
// stretch decide the value (README, "Steadiness").

// periodsPerS is the median over boundaries of periods delivered per wall
// second, the boundary's own churn included.
func (p *passResult) periodsPerS() float64 {
	return median(column(p.PerBoundary, func(s segmentStat) float64 { return s.Rate }))
}

// cpuUSPerPeriod is the median over the pass's segments.
func (p *passResult) cpuUSPerPeriod() float64 {
	return median(column(p.Segments, func(s segmentStat) float64 { return s.CPUUS }))
}

// latenessP50MS is the median over boundaries of the boundary's median
// result lateness.
func (p *passResult) latenessP50MS() float64 {
	return median(column(p.PerBoundary, func(s segmentStat) float64 { return s.P50MS }))
}

// latenessP99MS is the median over boundaries of the boundary's p99 result
// lateness: the tail within a boundary, at the typical boundary. A p99 over
// all results of a pass sits inside the few boundaries a collection cycle
// or a neighbour's burst hit and repeats only to within 20-65% on the
// reference machine; so, less badly, does any quantile of the boundaries
// above the median (the upper quartile: 11-20% on stream_fanout where the
// median gave 5-11%).
func (p *passResult) latenessP99MS() float64 {
	return median(column(p.PerBoundary, func(s segmentStat) float64 { return s.P99MS }))
}

func (p *passResult) allocsPerPeriod() float64 { return float64(p.Mallocs) / float64(p.Periods) }
func (p *passResult) failedShare() float64     { return float64(p.Failed) / float64(p.Expected) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAlloc collects twice before reading: the first collection moves what
// the sync.Pools hold (net/http's per-stream buffers above all) to their
// victim caches and the second frees it. After one, buffers pooled by an
// earlier pass of the process were still in the baseline, and
// stream_fanout's bytes_per_subscriber read 9.2 KB or 20.4 KB according to
// whether a background cycle happened to run during the subscribes.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var stageNames = [4]string{"pop", "evaluate", "flush", "deliver"}
var classNames = [4]string{"cold", "planned", "corridor", "pyramid"}

// readStages reads the stage histogram sums (seconds) and the per-class
// period counters the program exports. The registry is get-or-create, so
// asking for a family returns the one the service registered.
func readStages(svc *mobiquery.Service) (stage [4]float64, class [4]uint64) {
	reg := svc.Metrics()
	for i, n := range stageNames {
		h := reg.Histogram("mobiquery_advance_stage_seconds", `stage="`+n+`"`, "", int64(64*time.Second), 1e-9)
		stage[i] = float64(h.Sum()) * 1e-9
	}
	for i, n := range classNames {
		class[i] = reg.Counter("mobiquery_periods_evaluated_total", `class="`+n+`"`, "").Load()
	}
	return stage, class
}

// runPass sets a workload up, measures it, checks the ledger and tears it
// down. Set-up is Open + every subscribe + the W warm-up boundaries; the
// two heap readings it is interrupted for are not counted into it.
func runPass(wl *workload, cfg passConfig) (*passResult, error) {
	goroutines := runtime.NumGoroutine()
	perBoundary := len(wl.Cohorts[0])
	rec := newRecorder(cfg, perBoundary)
	res := &passResult{Rec: rec}

	net := wl.Net
	net.Service = cfg.Service
	var setup time.Duration
	lap := time.Now()
	pause := func() { setup += time.Since(lap) }
	resume := func() { lap = time.Now() }

	svc, err := mobiquery.Open(context.Background(), net, cfg.Options...)
	if err != nil {
		return nil, err
	}
	var tgt target
	if wl.Network && !cfg.InProcess {
		tgt, err = newStreamTarget(wl, svc, rec)
		if err != nil {
			svc.Close()
			return nil, err
		}
	} else {
		tgt = &inProcess{wl: wl, svc: svc, trace: cfg.Trace, cohorts: make([][]liveSub, len(wl.Cohorts)),
			idx: make([]int, wl.Churn), repl: make([]plan, wl.Churn)}
	}
	fail := func(err error) (*passResult, error) {
		tgt.close(rec)
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}

	pause()
	heap0 := heapAlloc()
	resume()
	j := 0 // Advance calls made so far
	for s := range wl.Cohorts {
		if s > 0 {
			j++
			if err := tgt.boundary(j, rec); err != nil {
				return fail(err)
			}
		}
		if err := tgt.subscribe(s, rec); err != nil {
			return fail(err)
		}
	}
	pause()
	res.BytesPerSub = (float64(heapAlloc()) - float64(heap0)) / float64(wl.subscribers())
	resume()
	for w := 0; w < wl.Warm; w++ {
		j++
		if err := tgt.boundary(j, rec); err != nil {
			return fail(err)
		}
	}
	pause()
	res.Setup = setup

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stage0, class0 := readStages(svc)
	cpu0 := cpuTime()
	rec.measuring = true
	start := rec.now()
	prevEnd := start
	for rec.measured < cfg.MaxBoundaries && (rec.measured < digestBoundaries || time.Duration(rec.now()-start) < cfg.Budget) {
		j++
		fire := rec.now()
		if err := tgt.boundary(j, rec); err != nil {
			return fail(err)
		}
		end := rec.now()
		rec.fireGap = append(rec.fireGap, fire-prevEnd)
		rec.endNS = append(rec.endNS, end)
		rec.cpuNS = append(rec.cpuNS, int64(cpuTime()))
		prevEnd = end
	}
	rec.measuring = false
	runtime.ReadMemStats(&ms1)
	stage1, class1 := readStages(svc)

	res.Boundaries = rec.measured
	for _, w := range rec.work {
		res.Periods += int64(w)
	}
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for i := range stage1 {
		res.Stage[i] = stage1[i] - stage0[i]
		res.Class[i] = class1[i] - class0[i]
	}
	res.Digest = rec.digest
	log := passLog{start, int64(cpu0), rec.endNS, rec.cpuNS, rec.work, rec.lateness}
	res.Segments = log.segments(passSegments)
	res.PerBoundary = log.segments(rec.measured)
	res.Samples = len(rec.lateness)
	gaps := make([]float64, len(rec.fireGap))
	for i, g := range rec.fireGap {
		gaps[i] = float64(g) / 1e3
	}
	slices.Sort(gaps)
	res.FireGapP99US = percentile(gaps, 99)
	res.Pyramid, _ = svc.PyramidStats()

	// The service's own ledger must agree with the harness's: every
	// evaluated period was handed to a consumer and none was dropped.
	st := svc.Stats()
	if err := tgt.close(rec); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", wl.Name, err)
	}
	res.Expected, res.Failed = rec.expected+rec.unclean, rec.failed+rec.unclean
	if st.Dropped != 0 || st.Delivered+st.Dropped != uint64(rec.expected) {
		return nil, fmt.Errorf("%s: service ledger delivered=%d dropped=%d, harness expected %d results and 0 dropped",
			wl.Name, st.Delivered, st.Dropped, rec.expected)
	}
	res.Goroutines = settleGoroutines(goroutines) - goroutines
	return res, nil
}

// settleGoroutines waits briefly for goroutines the pass started (stream
// readers, h2 connection loops) to finish exiting and returns the count.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}
