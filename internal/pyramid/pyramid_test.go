package pyramid

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// quantField is a position/time-dependent field whose values are multiples
// of 1/64 with bounded magnitude, so every partial sum is exactly
// representable and float addition is associative over them: flat and
// pyramid folds must agree bitwise, not just approximately.
var quantField = field.Func(func(p geom.Point, t sim.Time) float64 {
	q := math.Floor(p.X/16+p.Y/32) + math.Floor(float64(t/time.Millisecond)/256)
	return math.Mod(q, 512) / 64
})

// testSampler is a deterministic per-node schedule with 1s period and a
// hash-spread phase; every 17th node has no sample at all.
func testSampler(id int32, at sim.Time) (sim.Time, bool) {
	if id%17 == 0 {
		return 0, false
	}
	phase := sim.Time(uint64(id)*2654435761%1000) * sim.Time(time.Millisecond)
	if at < phase {
		return 0, false
	}
	period := sim.Time(time.Second)
	return (at-phase)/period*period + phase, true
}

// flatServe is the reference cold scan: VisitWithin over the grid, the
// engine's exact staleness classification, hits folded in ascending id
// order.
func flatServe(g *geom.ShardedGrid, due sim.Time, center geom.Point, radius float64, fresh time.Duration,
	sample func(int32, sim.Time) (sim.Time, bool), fld field.Field) core.Area {
	type hit struct {
		id int32
		v  float64
		t  sim.Time
	}
	var hits []hit
	sv := core.NewArea()
	g.VisitWithin(center, radius, func(id int32, pos geom.Point) {
		sv.AreaNodes++
		t, ok := due, true
		if sample != nil {
			t, ok = sample(id, due)
		}
		if !ok || (fresh > 0 && due-t > fresh) || t > due {
			sv.StaleNodes++
			return
		}
		hits = append(hits, hit{id: id, v: fld.Sample(pos, t), t: t})
	})
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].id < hits[j-1].id; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	for _, h := range hits {
		sv.Data.Count++
		sv.Data.Sum += h.v
		if h.v < sv.Data.Min {
			sv.Data.Min = h.v
		}
		if h.v > sv.Data.Max {
			sv.Data.Max = h.v
		}
		if age := due - h.t; age > sv.MaxStaleness {
			sv.MaxStaleness = age
		}
	}
	return sv
}

func sameServe(t *testing.T, ctx string, got, want core.Area) {
	t.Helper()
	if got.AreaNodes != want.AreaNodes || got.StaleNodes != want.StaleNodes {
		t.Fatalf("%s: accounting mismatch: got area=%d stale=%d, want area=%d stale=%d",
			ctx, got.AreaNodes, got.StaleNodes, want.AreaNodes, want.StaleNodes)
	}
	if got.Data.Count != want.Data.Count {
		t.Fatalf("%s: count %d, want %d", ctx, got.Data.Count, want.Data.Count)
	}
	if math.Float64bits(got.Data.Sum) != math.Float64bits(want.Data.Sum) {
		t.Fatalf("%s: sum %v (bits %x), want %v (bits %x)",
			ctx, got.Data.Sum, math.Float64bits(got.Data.Sum), want.Data.Sum, math.Float64bits(want.Data.Sum))
	}
	if math.Float64bits(got.Data.Min) != math.Float64bits(want.Data.Min) ||
		math.Float64bits(got.Data.Max) != math.Float64bits(want.Data.Max) {
		t.Fatalf("%s: min/max %v/%v, want %v/%v", ctx, got.Data.Min, got.Data.Max, want.Data.Min, want.Data.Max)
	}
	if got.MaxStaleness != want.MaxStaleness {
		t.Fatalf("%s: staleness %v, want %v", ctx, got.MaxStaleness, want.MaxStaleness)
	}
}

func fillGrid(g *geom.ShardedGrid, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := g.Region()
	for i := 0; i < n; i++ {
		g.Insert(int32(i), geom.Pt(
			r.MinX+rng.Float64()*(r.MaxX-r.MinX),
			r.MinY+rng.Float64()*(r.MaxY-r.MinY)))
	}
}

func TestServeWindowMatchesFlatScan(t *testing.T) {
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000}
	const fresh = 700 * time.Millisecond
	g := geom.NewShardedGrid(region, 62.5, 0)
	fillGrid(g, 4000, 7)
	p, err := New(g, Config{Fresh: fresh, Sample: testSampler, Field: quantField})
	if err != nil {
		t.Fatal(err)
	}
	due := sim.Time(5 * time.Second)
	p.EnsureEpoch(due)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		radius := 100 + rng.Float64()*700
		center := geom.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
		got, ok := p.ServeWindow(due, center, radius, fresh)
		if !ok {
			t.Fatalf("trial %d: serve declined on a clean matching epoch", trial)
		}
		want := flatServe(g, due, center, radius, fresh, testSampler, quantField)
		sameServe(t, "serve", got, want)
	}
	st := p.Stats()
	if st.Builds != 1 || st.Served != 60 || st.CoveredTiles == 0 {
		t.Fatalf("stats %+v: want 1 build, 60 serves, covered tiles", st)
	}
}

// TestServeWindowEdgeCases pins the aggregate corner semantics the flat
// path defines: empty areas yield NaN Min/Max/Avg, NaN readings poison Sum
// but never win Min/Max, a single reading averages to itself exactly.
func TestServeWindowEdgeCases(t *testing.T) {
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	g := geom.NewShardedGrid(region, 31.25, 4)
	// Nodes only in the left half; node 3's position yields NaN readings.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		g.Insert(int32(i), geom.Pt(rng.Float64()*450, rng.Float64()*1000))
	}
	g.Insert(9000, geom.Pt(960, 123)) // lone node in the right half
	fld := field.Func(func(p geom.Point, t sim.Time) float64 {
		if int(p.Y)%5 == 0 {
			return math.NaN()
		}
		return quantField.Sample(p, t)
	})
	p, err := New(g, Config{Fresh: 700 * time.Millisecond, Sample: testSampler, Field: fld})
	if err != nil {
		t.Fatal(err)
	}
	due := sim.Time(3 * time.Second)
	p.EnsureEpoch(due)

	check := func(name string, center geom.Point, radius float64) core.Area {
		t.Helper()
		got, ok := p.ServeWindow(due, center, radius, 700*time.Millisecond)
		if !ok {
			t.Fatalf("%s: serve declined", name)
		}
		sameServe(t, name, got, flatServe(g, due, center, radius, 700*time.Millisecond, testSampler, fld))
		return got
	}

	// Empty area: no nodes at all; Min/Max/Avg must come out NaN.
	empty := check("empty", geom.Pt(700, 700), 150)
	if empty.Data.Count != 0 || empty.AreaNodes != 0 {
		t.Fatalf("empty area served %d nodes", empty.AreaNodes)
	}
	for _, k := range []core.AggKind{core.AggMin, core.AggMax, core.AggAvg} {
		if v := empty.Data.Value(k); !math.IsNaN(v) {
			t.Fatalf("empty area agg %v = %v, want NaN", k, v)
		}
	}
	if empty.Data.Value(core.AggCount) != 0 {
		t.Fatalf("empty area count = %v", empty.Data.Value(core.AggCount))
	}

	// NaN readings: dense half, field NaN on some rows. Sum poisons, Min/Max
	// ignore NaN (comparisons are false), and the pyramid must reproduce
	// both behaviors bit for bit.
	nan := check("nan-readings", geom.Pt(250, 500), 400)
	if nan.Data.Count == 0 || !math.IsNaN(nan.Data.Sum) {
		t.Fatalf("nan-readings: count=%d sum=%v, want NaN sum over >0 readings", nan.Data.Count, nan.Data.Sum)
	}
	if math.IsNaN(nan.Data.Min) || math.IsNaN(nan.Data.Max) {
		t.Fatalf("nan-readings: min/max %v/%v should exclude NaN", nan.Data.Min, nan.Data.Max)
	}

	// Single reading: Avg must equal the reading exactly.
	single := check("single", geom.Pt(960, 123), 60)
	if single.Data.Count != 1 {
		t.Fatalf("single: count=%d, want 1", single.Data.Count)
	}
	samp, _ := testSampler(9000, due)
	want := fld.Sample(geom.Pt(960, 123), samp)
	if avg := single.Data.Value(core.AggAvg); avg != want {
		t.Fatalf("single: avg=%v, want %v", avg, want)
	}
}

// TestServeWindowGates exercises every decline path — a boundary never
// ingested, one the pyramid has moved past, a mismatched freshness window —
// and that re-ensuring the boundary already held builds nothing.
func TestServeWindowGates(t *testing.T) {
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	g := geom.NewShardedGrid(region, 31.25, 4)
	fillGrid(g, 800, 5)
	p, err := New(g, Config{Fresh: time.Second, Sample: testSampler, Field: quantField})
	if err != nil {
		t.Fatal(err)
	}
	due := sim.Time(2 * time.Second)
	center, radius := geom.Pt(500, 500), 300.0

	if _, ok := p.ServeWindow(due, center, radius, time.Second); ok {
		t.Fatal("served before any epoch was ingested")
	}
	p.EnsureEpoch(due)
	builds := p.Stats().Builds
	p.EnsureEpoch(due)
	if p.Stats().Builds != builds {
		t.Fatal("re-ensuring the boundary already held must build nothing")
	}
	if _, ok := p.ServeWindow(due+1, center, radius, time.Second); ok {
		t.Fatal("served a boundary that was never ingested")
	}
	if _, ok := p.ServeWindow(due, center, radius, 2*time.Second); ok {
		t.Fatal("served under a different freshness window")
	}
	if _, ok := p.ServeWindow(due, center, radius, time.Second); !ok {
		t.Fatal("declined a clean matching serve")
	}
	if p.Stats().Builds != builds {
		t.Fatal("serves must not build an epoch")
	}

	p.EnsureEpoch(due + sim.Time(time.Second))
	if p.Stats().Builds == builds {
		t.Fatal("ingest must build an epoch")
	}
	got, ok := p.ServeWindow(due+sim.Time(time.Second), center, radius, time.Second)
	if !ok {
		t.Fatal("declined after re-ingest")
	}
	sameServe(t, "re-ingest", got,
		flatServe(g, due+sim.Time(time.Second), center, radius, time.Second, testSampler, quantField))
	missed := p.Stats().MissNoEpoch
	if _, ok := p.ServeWindow(due, center, radius, time.Second); ok {
		t.Fatal("served a boundary older than the one ingested")
	}
	if p.Stats().MissNoEpoch != missed+1 {
		t.Fatal("a serve of a replaced boundary must count as a no-epoch miss")
	}

	st := p.Stats()
	if st.MissNoEpoch != 3 || st.MissFreshness != 1 || st.Served != 2 || st.Builds != 2 {
		t.Fatalf("stats %+v: want 3 no-epoch and 1 freshness misses, 2 serves, 2 builds", st)
	}
}

// TestEnsureEpochAllocatesNothing pins the ingest's steady state: once the
// first boundary has sized the epoch's buffers, each later boundary is built
// in them, with nothing allocated.
func TestEnsureEpochAllocatesNothing(t *testing.T) {
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	g := geom.NewShardedGrid(region, 31.25, 4)
	fillGrid(g, 800, 5)
	p, err := New(g, Config{Fresh: time.Second, Sample: testSampler, Field: quantField})
	if err != nil {
		t.Fatal(err)
	}
	due := sim.Time(time.Second)
	p.EnsureEpoch(due)
	allocs := testing.AllocsPerRun(50, func() {
		due += sim.Time(time.Second)
		p.EnsureEpoch(due)
	})
	if allocs != 0 {
		t.Fatalf("EnsureEpoch allocated %v times per boundary, want 0", allocs)
	}
	if st := p.Stats(); st.Builds != 52 {
		t.Fatalf("%d builds, want one per boundary (52)", st.Builds)
	}
}
