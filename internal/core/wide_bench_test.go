package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// BenchmarkEvaluateDueWide is the in-tree pair a rule for when a tile
// pyramid repays its ingest is judged on: r = 700 disks over a 5000-node
// field on the reference's three-second phased sampling schedule, 4 or 32
// of them on each boundary, answered by cold scans (cold) or through one
// shared pyramid (pyramid). Each boundary runs in the order the service's
// Advance uses — PopDue, the pyramid's one EnsureEpoch, every EvaluateDue,
// FlushRearms — and the reported cost is µs per evaluated period, the
// boundary's ingest and reading column included.
func BenchmarkEvaluateDueWide(b *testing.B) {
	for _, route := range []string{"cold", "pyramid"} {
		for _, queries := range []int{4, 32} {
			b.Run(fmt.Sprintf("%s/queries=%d", route, queries), func(b *testing.B) {
				benchEvaluateDueWide(b, route == "pyramid", queries)
			})
		}
	}
}

func benchEvaluateDueWide(b *testing.B, withPyramid bool, queries int) {
	b.ReportAllocs()
	sample, fld := refSampler(), refFields[0].fld
	region := geom.Square(refSide)
	e := core.NewQueryEngine(region, refCell, fld, core.EngineConfig{})
	e.SetSampler(sample)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}
	spec := core.TemporalSpec{Period: time.Second, Fresh: time.Second}
	var p *pyramid.Pyramid
	if withPyramid {
		var err error
		if p, err = pyramid.New(e.Index(), pyramid.Config{Fresh: spec.Fresh, Sample: sample, Field: fld}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= queries; i++ {
		if err := e.RegisterTemporalE(uint32(i), 700, geom.Pt(700+600*rng.Float64(), 700+600*rng.Float64()), spec, 0); err != nil {
			b.Fatal(err)
		}
		if p != nil {
			e.SetQueryAggIndex(uint32(i), p)
		}
	}
	rb := e.NewRearmBatch()
	var batch []core.DueEntry
	now, hits := sim.Time(0), 0
	boundary := func() {
		now += time.Second
		batch = e.PopDue(now, batch[:0])
		if p != nil && len(batch) > 0 {
			p.EnsureEpoch(now)
		}
		for i := range batch {
			if wr, _ := batch[i].Query.EvaluateDue(now, rb); wr.PyramidHit {
				hits++
			}
		}
		e.FlushRearms(rb)
	}
	// The first boundaries size the batch, the re-arm buckets, the column
	// and the epoch.
	for i := 0; i < 4; i++ {
		boundary()
	}
	hits = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundary()
	}
	b.StopTimer()
	want := 0
	if p != nil {
		want = b.N * queries
	}
	if hits != want {
		b.Fatalf("%d of %d periods pyramid-served, want %d", hits, b.N*queries, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*queries), "µs/period")
}
