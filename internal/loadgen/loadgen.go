// Package loadgen is the closed/open-loop worker harness that drives a
// mobiquery-serve front-end and measures its SLOs: subscribe latency,
// per-period delivery lateness, drop counts, and sustained
// subscriptions/sec, reported as the machine-readable SLO_pr.json
// artifact CI trends.
//
// The run is phased. A warmup window absorbs connection setup and cold
// caches; the steady window is the one to read; an optional
// elasticity wave — a burst of extra workers resubscribing mid-run —
// shows how subscribe latency behaves as load steps up, so scaling is
// reported as a curve (steady vs wave percentiles), not a point.
//
// Workers are seeded: worker i derives its query spec (radius), start
// position, motion (linear or a GPS-predicted course through the
// mobility profilers) and strategy (on-demand or JIT) from Seed+i alone,
// so two runs against equal servers subscribe identical workloads. The
// measured latencies are wall-clock and as noisy as the host: a comparison
// needs paired runs on one machine (ROADMAP 6(a)), which nothing in CI
// makes yet.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"mobiquery/internal/obs"
	"mobiquery/internal/wire"
)

// TraceLog is the client side of a traced run: every traced period's
// server span joined with the client's own stamps, in arrival order —
// the TRACE_pr.ndjson artifact mobiquery-tracestat validates.
type TraceLog struct {
	Spans []wire.ClientSpan
}

// WriteFile writes the log as NDJSON, one ClientSpan per line.
func (t *TraceLog) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := wire.NewEncoder(f)
	for i := range t.Spans {
		if err := enc.Encode(&t.Spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadTraceLog loads a TRACE_pr.ndjson artifact.
func ReadTraceLog(path string) (*TraceLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := wire.NewDecoder(f)
	var t TraceLog
	for {
		var cs wire.ClientSpan
		if err := dec.Decode(&cs); err != nil {
			if err == io.EOF {
				return &t, nil
			}
			return nil, fmt.Errorf("loadgen: %s: %w", path, err)
		}
		t.Spans = append(t.Spans, cs)
	}
}

// Config shapes one load-generation run.
type Config struct {
	// Addr is the server base URL (http://host:port).
	Addr string `json:"addr"`
	// Workers is the closed-loop worker count (open loop: the in-flight
	// cap). Each closed-loop worker subscribes, drains the stream to its
	// end, and immediately resubscribes.
	Workers int `json:"workers"`
	// OpenLoop switches from closed-loop workers to open-loop arrivals:
	// subscriptions start at Rate per second regardless of completions.
	OpenLoop bool `json:"open_loop,omitempty"`
	// Rate is the open-loop arrival rate, subscriptions per second.
	Rate float64 `json:"rate,omitempty"`
	// Warmup is excluded from the steady-phase percentiles; Duration is
	// the measured window after it.
	Warmup   time.Duration `json:"warmup_ns"`
	Duration time.Duration `json:"duration_ns"`
	// WaveWorkers extra workers join WaveAt after the steady window opens
	// (the elasticity phase); 0 disables the wave.
	WaveWorkers int           `json:"wave_workers,omitempty"`
	WaveAt      time.Duration `json:"wave_at_ns,omitempty"`
	// Seed derives every worker's query field and motion.
	Seed int64 `json:"seed"`

	// Query shaping: each subscription draws its radius from
	// [RadiusMin, RadiusMax] and runs for Lifetime (periods of Period,
	// Deadline slack, Freshness window) before resubscribing.
	Period    time.Duration `json:"period_ns"`
	Deadline  time.Duration `json:"deadline_ns"`
	Freshness time.Duration `json:"freshness_ns"`
	Lifetime  time.Duration `json:"lifetime_ns"`
	RadiusMin float64       `json:"radius_min_m"`
	RadiusMax float64       `json:"radius_max_m"`
	// Region bounds worker motion; match the server's field side.
	Region float64 `json:"region_m"`
	// JITEvery makes every Nth subscription use the JIT prefetching
	// strategy (0 = never); CourseEvery gives every Nth a GPS-predicted
	// random course instead of linear motion (0 = never).
	JITEvery    int `json:"jit_every,omitempty"`
	CourseEvery int `json:"course_every,omitempty"`
	// LargeEvery gives every Nth subscription the fixed LargeRadius
	// instead of a draw from [RadiusMin, RadiusMax] (0 = never). Large
	// subscriptions always run on-demand — region-scale aggregate disks
	// are the tile-pyramid workload, and the server only attaches the
	// pyramid to non-prefetching queries.
	LargeEvery  int     `json:"large_every,omitempty"`
	LargeRadius float64 `json:"large_radius_m,omitempty"`
	// TraceEvery mints a trace context on every Nth subscription (0 =
	// never): the server echoes each traced period's lifecycle span on its
	// result frame, and the client joins its own send/ack/receive stamps
	// into the TraceLog (TRACE_pr.ndjson). Trace ids derive from Seed and
	// the subscription number, so traced runs are reproducible too.
	TraceEvery int `json:"trace_every,omitempty"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Addr == "":
		return fmt.Errorf("loadgen: Addr must be set")
	case c.Workers <= 0:
		return fmt.Errorf("loadgen: Workers must be positive, got %d", c.Workers)
	case c.OpenLoop && c.Rate <= 0:
		return fmt.Errorf("loadgen: open loop needs a positive Rate, got %v", c.Rate)
	case c.Duration <= 0:
		return fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	case c.Warmup < 0 || c.WaveAt < 0 || c.WaveWorkers < 0:
		return fmt.Errorf("loadgen: Warmup, WaveAt, and WaveWorkers must be non-negative")
	case c.WaveWorkers > 0 && c.WaveAt >= c.Duration:
		return fmt.Errorf("loadgen: WaveAt %v must fall inside Duration %v", c.WaveAt, c.Duration)
	case c.Period <= 0 || c.Lifetime < c.Period:
		return fmt.Errorf("loadgen: need 0 < Period <= Lifetime, got %v/%v", c.Period, c.Lifetime)
	case c.RadiusMin <= 0 || c.RadiusMax < c.RadiusMin:
		return fmt.Errorf("loadgen: need 0 < RadiusMin <= RadiusMax, got %v/%v", c.RadiusMin, c.RadiusMax)
	case c.Region <= 0:
		return fmt.Errorf("loadgen: Region must be positive, got %v", c.Region)
	case c.JITEvery < 0 || c.CourseEvery < 0 || c.LargeEvery < 0 || c.TraceEvery < 0:
		return fmt.Errorf("loadgen: JITEvery, CourseEvery, LargeEvery, and TraceEvery must be non-negative")
	case c.LargeEvery > 0 && c.LargeRadius <= 0:
		return fmt.Errorf("loadgen: LargeEvery %d needs a positive LargeRadius, got %v", c.LargeEvery, c.LargeRadius)
	}
	return nil
}

// Phases of a run.
const (
	PhaseWarmup = "warmup"
	PhaseSteady = "steady"
	PhaseWave   = "wave"
)

// Latency summarizes one latency distribution in milliseconds.
type Latency struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Phase is the per-phase slice of the report. SubscribeLatencyMS is
// request start to ack frame; DeliveryLatenessMS is how far behind its
// period deadline each result reached the client (clock anchored at the
// ack, clamped at zero); Late counts results the server itself marked
// late.
type Phase struct {
	Subscribes         int     `json:"subscribes"`
	Results            int     `json:"results"`
	Late               int     `json:"late"`
	Dropped            int     `json:"dropped"`
	Errors             int     `json:"errors"`
	SubscribeLatencyMS Latency `json:"subscribe_latency_ms"`
	DeliveryLatenessMS Latency `json:"delivery_lateness_ms"`
}

// Totals is the run-level summary. SubsPerSec is completed subscriptions
// per second of the steady+wave window — the sustained throughput
// headline.
type Totals struct {
	Subscribes int     `json:"subscribes"`
	Results    int     `json:"results"`
	Late       int     `json:"late"`
	Dropped    int     `json:"dropped"`
	Errors     int     `json:"errors"`
	SubsPerSec float64 `json:"subs_per_sec"`
}

// Report is the SLO_pr.json schema, versioned so a reader can reject
// incompatible artifacts.
type Report struct {
	Schema        int               `json:"schema"`
	GeneratedUnix int64             `json:"generated_unix"`
	Config        Config            `json:"config"`
	Phases        map[string]*Phase `json:"phases"`
	Totals        Totals            `json:"totals"`
}

// Schema is the current Report schema version.
const Schema = 1

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads and version-checks a report file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("loadgen: %s: schema %d, want %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// Client speaks the wire protocol to a serve front-end.
type Client struct {
	Base string
	HTTP *http.Client
}

// Stream is one live subscribe stream.
type Stream struct {
	Ack  wire.Frame
	dec  *wire.Decoder
	body interface{ Close() error }
}

// Subscribe opens a stream and decodes the ack frame.
func (c *Client) Subscribe(ctx context.Context, req wire.SubscribeRequest) (*Stream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("loadgen: subscribe: status %s", resp.Status)
	}
	st := &Stream{dec: wire.NewDecoder(resp.Body), body: resp.Body}
	if err := st.dec.Decode(&st.Ack); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("loadgen: subscribe ack: %w", err)
	}
	if st.Ack.Type != wire.FrameAck {
		resp.Body.Close()
		return nil, fmt.Errorf("loadgen: first frame is %q, want ack", st.Ack.Type)
	}
	return st, nil
}

// Next returns the next frame on the stream.
func (s *Stream) Next() (wire.Frame, error) {
	var f wire.Frame
	err := s.dec.Decode(&f)
	return f, err
}

// Close releases the stream (the server tears the subscription down).
func (s *Stream) Close() { s.body.Close() }

// WaitReady polls the server's health endpoint until it answers or the
// timeout expires — serialization point for freshly spawned servers.
func WaitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		last = err
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: server at %s not ready after %v: %w", base, timeout, last)
}

// collector accumulates phase-attributed samples under one lock; worker
// hot paths batch nothing because smoke-scale sample counts are small.
type collector struct {
	mu     sync.Mutex
	phases map[string]*phaseAcc
	// spans is the run's joined client+server trace log, in arrival order
	// (empty without Config.TraceEvery).
	spans []wire.ClientSpan
}

type phaseAcc struct {
	subLat  []float64
	lateNss []float64
	Phase
}

func newCollector() *collector {
	return &collector{phases: map[string]*phaseAcc{
		PhaseWarmup: {}, PhaseSteady: {}, PhaseWave: {},
	}}
}

func (c *collector) acc(phase string) *phaseAcc { return c.phases[phase] }

// worker is one subscriber loop. class is PhaseWave for wave workers,
// PhaseSteady otherwise; samples taken before warmupEnd land in warmup.
type worker struct {
	class   string
	cfg     Config
	client  *Client
	col     *collector
	started time.Time
	warmup  time.Duration
}

// phase attributes a sample taken now.
func (w *worker) phase() string {
	if w.class == PhaseWave {
		return PhaseWave
	}
	if time.Since(w.started) < w.warmup {
		return PhaseWarmup
	}
	return PhaseSteady
}

// request derives the seeded subscribe request for global subscription n.
func request(cfg Config, n int) wire.SubscribeRequest {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	spec := wire.Spec{
		RadiusM:     cfg.RadiusMin + rng.Float64()*(cfg.RadiusMax-cfg.RadiusMin),
		PeriodNS:    int64(cfg.Period),
		DeadlineNS:  int64(cfg.Deadline),
		FreshnessNS: int64(cfg.Freshness),
		LifetimeNS:  int64(cfg.Lifetime),
	}
	if cfg.JITEvery > 0 && n%cfg.JITEvery == 0 {
		spec.Strategy = "jit"
	}
	if cfg.LargeEvery > 0 && n%cfg.LargeEvery == 0 {
		spec.RadiusM = cfg.LargeRadius
		spec.Strategy = ""
	}
	// Keep starts away from the boundary so query areas stay populated.
	x := cfg.Region * (0.2 + 0.6*rng.Float64())
	y := cfg.Region * (0.2 + 0.6*rng.Float64())
	motion := wire.Motion{Kind: "linear", XM: x, YM: y}
	heading := 2 * math.Pi * rng.Float64()
	speed := 1 + 3*rng.Float64()
	motion.VXMPS = speed * math.Cos(heading)
	motion.VYMPS = speed * math.Sin(heading)
	if cfg.TraceEvery > 0 && n%cfg.TraceEvery == 0 {
		spec.TraceID = wire.FormatID(traceIDFor(cfg.Seed, n))
	}
	if cfg.CourseEvery > 0 && n%cfg.CourseEvery == 0 {
		motion = wire.Motion{
			Kind: "course", XM: x, YM: y,
			Seed:             cfg.Seed + int64(n),
			RegionSideM:      cfg.Region,
			SpeedMinMPS:      1,
			SpeedMaxMPS:      4,
			ChangeIntervalNS: int64(5 * cfg.Period),
			DurationNS:       int64(4 * cfg.Lifetime),
			GPSSeed:          cfg.Seed + int64(n) + 1,
			GPSSamplingNS:    int64(cfg.Period / 2),
			GPSErrM:          5,
		}
	}
	return wire.SubscribeRequest{Spec: spec, Motion: motion}
}

// traceIDFor mints the deterministic, non-zero trace id of global
// subscription n in a run seeded with seed.
func traceIDFor(seed int64, n int) uint64 {
	tid := uint64(obs.MintSpanID(obs.TraceID(seed), n+1))
	if tid == 0 {
		tid = 1 // 0 means untraced; the finalizer all but never lands here
	}
	return tid
}

// runOnce executes one full subscription lifecycle and records it.
func (w *worker) runOnce(ctx context.Context, n int) {
	req := request(w.cfg, n)
	phase := w.phase()
	t0 := time.Now()
	st, err := w.client.Subscribe(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			return // the run window closed mid-subscribe: not a server fault
		}
		w.col.mu.Lock()
		w.col.acc(phase).Errors++
		w.col.mu.Unlock()
		time.Sleep(50 * time.Millisecond) // do not hammer a sick server
		return
	}
	defer st.Close()
	ackAt := time.Now()
	subLatMS := float64(ackAt.Sub(t0)) / float64(time.Millisecond)

	var results, late int
	var lateNss []float64
	var spans []wire.ClientSpan
	var dropped int
	for {
		f, err := st.Next()
		recvAt := time.Now()
		if err != nil {
			break // disconnect or shutdown mid-stream: keep what we saw
		}
		if f.Type == wire.FrameEnd {
			if f.Stats != nil {
				dropped = f.Stats.Dropped
			}
			break
		}
		if f.Type != wire.FrameResult {
			continue
		}
		if f.Result.Trace != nil {
			// A traced period: join the server's echoed span with this
			// stream's client-side stamps.
			spans = append(spans, wire.ClientSpan{
				Sub:    st.Ack.ID,
				SendNS: t0.UnixNano(),
				AckNS:  ackAt.UnixNano(),
				RecvNS: recvAt.UnixNano(),
				Server: *f.Result.Trace,
			})
		}
		// The ack anchors the clock: result k is due (Deadline - ackNow)
		// after the ack, modulo one server tick. Early arrivals clamp to
		// zero — the SLO is about lag, not tick phase.
		expected := ackAt.Add(time.Duration(f.Result.DeadlineNS - st.Ack.NowNS))
		lat := time.Since(expected)
		if lat < 0 {
			lat = 0
		}
		lateNss = append(lateNss, float64(lat)/float64(time.Millisecond))
		results++
		if !f.Result.OnTime {
			late++
		}
	}

	w.col.mu.Lock()
	a := w.col.acc(phase)
	a.Subscribes++
	a.subLat = append(a.subLat, subLatMS)
	a.lateNss = append(a.lateNss, lateNss...)
	a.Results += results
	a.Late += late
	a.Dropped += dropped
	w.col.spans = append(w.col.spans, spans...)
	w.col.mu.Unlock()
}

// Run executes the configured load against the server and assembles the
// report plus the run's trace log (empty, never nil, without
// Config.TraceEvery). It returns once the run window has elapsed and
// every worker has drained.
func Run(ctx context.Context, cfg Config) (*Report, *TraceLog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	client := &Client{Base: cfg.Addr, HTTP: &http.Client{}}
	col := newCollector()
	start := time.Now()
	runCtx, cancel := context.WithDeadline(ctx, start.Add(cfg.Warmup+cfg.Duration))
	defer cancel()

	var wg sync.WaitGroup
	var n counter // global subscription counter feeding the seeded generator

	closedLoop := func(w *worker) {
		defer wg.Done()
		for runCtx.Err() == nil {
			w.runOnce(runCtx, n.next())
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{class: PhaseSteady, cfg: cfg, client: client, col: col, started: start, warmup: cfg.Warmup}
		wg.Add(1)
		if cfg.OpenLoop {
			go w.openLoop(runCtx, &wg, &n)
		} else {
			go closedLoop(w)
		}
	}
	if cfg.WaveWorkers > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-runCtx.Done():
				return
			case <-time.After(cfg.Warmup + cfg.WaveAt):
			}
			for i := 0; i < cfg.WaveWorkers; i++ {
				w := &worker{class: PhaseWave, cfg: cfg, client: client, col: col, started: start, warmup: cfg.Warmup}
				wg.Add(1)
				go closedLoop(w)
			}
		}()
	}
	wg.Wait()

	rep := &Report{
		Schema:        Schema,
		GeneratedUnix: time.Now().Unix(),
		Config:        cfg,
		Phases:        make(map[string]*Phase, len(col.phases)),
	}
	measured := 0
	for name, acc := range col.phases {
		acc.SubscribeLatencyMS = summarize(acc.subLat)
		acc.DeliveryLatenessMS = summarize(acc.lateNss)
		p := acc.Phase
		rep.Phases[name] = &p
		rep.Totals.Subscribes += p.Subscribes
		rep.Totals.Results += p.Results
		rep.Totals.Late += p.Late
		rep.Totals.Dropped += p.Dropped
		rep.Totals.Errors += p.Errors
		if name != PhaseWarmup {
			measured += p.Subscribes
		}
	}
	rep.Totals.SubsPerSec = float64(measured) / cfg.Duration.Seconds()
	return rep, &TraceLog{Spans: col.spans}, nil
}

// openLoop starts subscriptions at cfg.Rate/Workers per second from this
// worker (the aggregate across workers is cfg.Rate), not waiting for
// completions; each runs to its end on its own goroutine.
func (w *worker) openLoop(ctx context.Context, wg *sync.WaitGroup, n *counter) {
	defer wg.Done()
	interval := time.Duration(float64(time.Second) * float64(w.cfg.Workers) / w.cfg.Rate)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var inner sync.WaitGroup
	defer inner.Wait()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			inner.Add(1)
			go func(id int) {
				defer inner.Done()
				w.runOnce(ctx, id)
			}(n.next())
		}
	}
}

// counter is a concurrency-safe increasing id.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n - 1
}

// summarize computes the percentile block of one sample set.
func summarize(samples []float64) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return Latency{
		Count: len(s),
		P50:   pick(0.50),
		P95:   pick(0.95),
		P99:   pick(0.99),
		Max:   s[len(s)-1],
	}
}
