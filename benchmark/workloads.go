package main

import (
	"fmt"
	"math"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// The sensor field is the same for every workload: 5000 nodes over a
// 2000 m square, measuring a planar ramp so that aggregates differ between
// areas and a changed float accumulation order shows in the digest.
const (
	fieldNodes = 5000
	fieldSide  = 2000.0
)

// plan is one subscription the driver opens: the spec plus a static
// position or a straight-line motion. It is plain data so that two
// generations can be compared with ==.
type plan struct {
	Spec   mobiquery.QuerySpec
	X, Y   float64
	VX, VY float64
}

func (p plan) source() mobiquery.MotionSource {
	if p.VX == 0 && p.VY == 0 {
		return mobiquery.StaticPosition(mobiquery.Pt(p.X, p.Y))
	}
	return mobiquery.LinearMotion(mobiquery.Pt(p.X, p.Y), p.VX, p.VY)
}

// request renders the plan as the wire subscribe body. Only what the
// network workload uses is mapped: on-demand Count/Avg specs.
func (p plan) request() wire.SubscribeRequest {
	agg := "avg"
	if p.Spec.Aggregate == mobiquery.Count {
		agg = "count"
	}
	req := wire.SubscribeRequest{
		Spec: wire.Spec{
			RadiusM:     p.Spec.Radius,
			PeriodNS:    int64(p.Spec.Period),
			DeadlineNS:  int64(p.Spec.Deadline),
			FreshnessNS: int64(p.Spec.Freshness),
			Aggregate:   agg,
			TraceID:     wire.FormatID(uint64(p.Spec.Trace)),
		},
		Motion: wire.Motion{Kind: "static", XM: p.X, YM: p.Y},
	}
	if p.VX != 0 || p.VY != 0 {
		req.Motion.Kind, req.Motion.VXMPS, req.Motion.VYMPS = "linear", p.VX, p.VY
	}
	return req
}

// workload is one generated input set. Everything in it is a pure function
// of (name, seed); the program under test only ever sees these inputs.
type workload struct {
	Name string
	Seed int64
	Net  mobiquery.NetworkConfig
	// Tick is the virtual time one boundary advances the clock by. Cohort s
	// subscribes s ticks after cohort 0, so with a period of len(Cohorts)
	// ticks exactly one cohort is due per boundary.
	Tick    time.Duration
	Cohorts [][]plan
	// Warm is W: boundaries fired during set-up, before timing starts.
	Warm int
	// MaxK caps the measured boundaries of a pass (0: only the clock does).
	// Movers walk a straight line for as long as a pass lasts, and must not
	// be walked off the field by a machine that fires boundaries faster.
	MaxK int
	// Churn subscriptions of the due cohort are closed and replaced after
	// each boundary's results are in.
	Churn int
	// Network drives the plans as subscribe streams over TLS + HTTP/2.
	Network bool
}

// subscribers returns N, the number of subscriptions open at any instant.
func (w *workload) subscribers() int {
	n := 0
	for _, c := range w.Cohorts {
		n += len(c)
	}
	return n
}

// workloadInfo is the registry entry of one workload: its name and the
// reason it exists. BENCHMARK.json repeats both; a test keeps them equal.
type workloadInfo struct {
	Name, Why string
	gen       func(seed int64) *workload
}

var workloads = []workloadInfo{
	{"dense_eval", "N=4000 in-process movers, r=150 m (~88 nodes/area), Avg, one shared boundary, W=50: evaluation (finishWindow sort + VisitWithin) does the work; wire and server idle.", genDenseEval},
	{"stream_fanout", "S=400 subscribe streams over TLS+HTTP/2 on min(nproc,4) connections, r=25 m, Count, static, W=200: JSON encode, per-frame flush and h2 framing dominate; evaluation is noise.", genStreamFanout},
	{"warm_paths", "N=5000 in process over a 3 s sleepy field: 3000 JIT+corridor movers, 1000 r=700 pyramid queries, 1000 Window=4 queries, W=20: staged snapshots, tile partials and the window ring, not cold scans.", genWarmPaths},
	{"sparse_churn", "N=50000 static r=25 m Count, period=100 ticks, 500 due per tick, 25 closed and re-subscribed per tick, W=1000: schedule heap, re-arm flush, delivery merge, Subscribe/Close and per-subscriber memory.", genSparseChurn},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

func generate(name string, seed int64) (*workload, error) {
	info, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return info.gen(seed), nil
}

// newWorkload fills the parts every workload shares. Each workload draws
// from its own stream so adding one never shifts another's inputs.
func newWorkload(name string, seed int64, sample time.Duration) (*workload, *prng) {
	var salt uint64
	for _, c := range name {
		salt = salt*131 + uint64(c)
	}
	w := &workload{
		Name: name,
		Seed: seed,
		Net: mobiquery.NetworkConfig{
			Seed:         seed,
			Nodes:        fieldNodes,
			RegionSide:   fieldSide,
			SamplePeriod: sample,
			Field:        mobiquery.GradientField(10, 0.01, 0.005),
		},
		Tick: time.Second,
	}
	rng := prng(mix64(uint64(seed) ^ salt))
	return w, &rng
}

// prng is a SplitMix64 stream: small enough to reseed per boundary for the
// churn picks without an allocation inside the measured loop.
type prng uint64

func (r *prng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	return mix64(uint64(*r))
}

func uniform(rng *prng, lo, hi float64) float64 {
	return lo + float64(rng.next()>>11)/(1<<53)*(hi-lo)
}

func genDenseEval(seed int64) *workload {
	w, rng := newWorkload("dense_eval", seed, time.Second)
	w.Warm = 50
	w.MaxK = 600 // 0.5 m/s: with W, 325 m from starts 500 m inside, so every r=150 disk stays in the field
	cohort := make([]plan, 4000)
	for i := range cohort {
		heading := uniform(rng, 0, 2*math.Pi)
		cohort[i] = plan{
			Spec: mobiquery.QuerySpec{
				Radius:    150,
				Period:    time.Second,
				Deadline:  100 * time.Millisecond,
				Freshness: 500 * time.Millisecond,
				Aggregate: mobiquery.Avg,
			},
			X: uniform(rng, 500, 1500), Y: uniform(rng, 500, 1500),
			VX: 0.5 * math.Cos(heading), VY: 0.5 * math.Sin(heading),
		}
	}
	w.Cohorts = [][]plan{cohort}
	return w
}

// smallCount is the radius-25 Count query of the two workloads whose cost
// is everything but evaluation. Count, not Avg: an Avg over an empty area
// is NaN, which the server's JSON encoder rejects (see README, "NaN").
func smallCount(rng *prng) plan {
	return plan{
		Spec: mobiquery.QuerySpec{
			Radius:    25,
			Period:    time.Second,
			Deadline:  100 * time.Millisecond,
			Freshness: 500 * time.Millisecond,
			Aggregate: mobiquery.Count,
		},
		X: uniform(rng, 100, 1900), Y: uniform(rng, 100, 1900),
	}
}

func genStreamFanout(seed int64) *workload {
	w, rng := newWorkload("stream_fanout", seed, time.Second)
	w.Warm = 200
	w.Network = true
	cohort := make([]plan, 400)
	for i := range cohort {
		cohort[i] = smallCount(rng)
	}
	w.Cohorts = [][]plan{cohort}
	return w
}

func genWarmPaths(seed int64) *workload {
	w, rng := newWorkload("warm_paths", seed, 3*time.Second)
	w.Warm = 20
	w.MaxK = 330 // 1 m/s: with W, 350 m from starts 500 m inside, so every r=150 disk stays in the field
	base := mobiquery.QuerySpec{
		Radius:    150,
		Period:    time.Second,
		Deadline:  100 * time.Millisecond,
		Freshness: time.Second,
		Aggregate: mobiquery.Avg,
	}
	cohort := make([]plan, 0, 5000)
	for i := 0; i < 3000; i++ {
		heading := uniform(rng, 0, 2*math.Pi)
		spec := base
		spec.Strategy = mobiquery.JITStrategy()
		spec.Corridor = mobiquery.CorridorSpec{Lookahead: 3, ErrorModel: mobiquery.ErrorModel{Base: 5}}
		cohort = append(cohort, plan{
			Spec: spec,
			X:    uniform(rng, 500, 1500), Y: uniform(rng, 500, 1500),
			VX: math.Cos(heading), VY: math.Sin(heading),
		})
	}
	for i := 0; i < 1000; i++ {
		spec := base
		spec.Radius = 700
		cohort = append(cohort, plan{Spec: spec, X: uniform(rng, 900, 1100), Y: uniform(rng, 900, 1100)})
	}
	for i := 0; i < 1000; i++ {
		spec := base
		spec.Window = 4
		cohort = append(cohort, plan{Spec: spec, X: uniform(rng, 500, 1500), Y: uniform(rng, 500, 1500)})
	}
	w.Cohorts = [][]plan{cohort}
	return w
}

func genSparseChurn(seed int64) *workload {
	w, rng := newWorkload("sparse_churn", seed, time.Second)
	w.Tick = 10 * time.Millisecond
	w.Warm = 1000
	w.Churn = 25
	w.Cohorts = make([][]plan, 100)
	for s := range w.Cohorts {
		cohort := make([]plan, 500)
		for i := range cohort {
			cohort[i] = smallCount(rng)
		}
		w.Cohorts[s] = cohort
	}
	return w
}

// churnPicks fills idx with the Churn distinct members of the due cohort
// (of size n) that boundary b closes, and repl with the plans replacing
// them. It is a pure function of (seed, b), so the reference run replays
// the same churn; both slices must have length Churn.
func (w *workload) churnPicks(b, n int, idx []int, repl []plan) {
	rng := prng(mix64(uint64(w.Seed)<<20 ^ uint64(b)))
	for i := range idx {
	draw:
		for {
			idx[i] = int(rng.next() % uint64(n))
			for _, prev := range idx[:i] {
				if prev == idx[i] {
					continue draw
				}
			}
			break
		}
		repl[i] = smallCount(&rng)
	}
}
