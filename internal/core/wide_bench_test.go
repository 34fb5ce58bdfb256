package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// field on the reference's three-second phased sampling schedule, 1 to 32 of
// them on each boundary, answered by cold scans on one rig and through one
// shared pyramid on an identical second rig. Each boundary runs in the order
// the service's Advance uses — PopDue, the pyramid's one EnsureEpoch, every
// EvaluateDue, FlushRearms — so its ingest and reading column are priced in.
// The rigs alternate boundary by boundary in this one process (pairedRatio),
// and each row reports the median per-pair pyramid/cold time ratio with its
// 95% interval, and the cold rig's median µs per period. It asserts no
// timing, only that each rig takes the route it is named for.
func BenchmarkEvaluateDueWide(b *testing.B) {
	for _, queries := range []int{1, 2, 4, 8, 32} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			b.ReportAllocs()
			cold, pyr := newWideRig(b, false, queries), newWideRig(b, true, queries)
			// The first boundaries size the batch, the re-arm buckets, the
			// column and the epoch.
			for i := 0; i < 4; i++ {
				cold.boundary()
				pyr.boundary()
			}
			cold.hits, pyr.hits = 0, 0
			b.ResetTimer()
			p := pairedRatio(cold.boundary, pyr.boundary, b.N)
			b.StopTimer()
			if cold.hits != 0 || pyr.hits != b.N*queries {
				b.Fatalf("pyramid-served periods: cold rig %d, pyramid rig %d, want 0 and %d", cold.hits, pyr.hits, b.N*queries)
			}
			b.ReportMetric(p.ratio, "pyramid/cold")
			b.ReportMetric(p.lo, "lo95")
			b.ReportMetric(p.hi, "hi95")
			b.ReportMetric(float64(p.a.Nanoseconds())/1e3/float64(queries), "cold-µs/period")
		})
	}
}

// wideRig is one route of BenchmarkEvaluateDueWide: its own engine over the
// same field and queries, and the count of its pyramid-served periods.
type wideRig struct {
	boundary func()
	hits     int
}

func newWideRig(b *testing.B, withPyramid bool, queries int) *wideRig {
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
	r := &wideRig{}
	rb := e.NewRearmBatch()
	var batch []core.DueEntry
	now := sim.Time(0)
	r.boundary = func() {
		now += time.Second
		batch = e.PopDue(now, batch[:0])
		if p != nil && len(batch) > 0 {
			p.EnsureEpoch(now)
		}
		for i := range batch {
			if wr, _ := batch[i].Query.EvaluateDue(now, rb); wr.PyramidHit {
				r.hits++
			}
		}
		e.FlushRearms(rb)
	}
	return r
}

// paired is what pairedRatio measured: the median per-pair b/a time ratio,
// its 95% interval, and a's median time per run.
type paired struct {
	ratio, lo, hi float64
	a             time.Duration
}

// pairedRatio runs a and b n times each in alternating pairs, a first in
// even pairs and b first in odd ones, so neither side always runs on the
// state the other left. Whatever slows a whole pair — frequency, neighbours,
// the collector — divides out of its ratio. The interval is the order
// statistics n/2 ± 1.96·√n/2 of the sorted ratios, which holds whatever
// their distribution; at n = 1 it is the one ratio.
func pairedRatio(a, b func(), n int) paired {
	timed := func(f func()) time.Duration {
		t := time.Now()
		f()
		return time.Since(t)
	}
	ratios, as := make([]float64, n), make([]time.Duration, n)
	for i := range ratios {
		var ta, tb time.Duration
		if i%2 == 0 {
			ta = timed(a)
			tb = timed(b)
		} else {
			tb = timed(b)
			ta = timed(a)
		}
		ratios[i], as[i] = float64(tb)/float64(ta), ta
	}
	slices.Sort(ratios)
	slices.Sort(as)
	half := 1.96 * math.Sqrt(float64(n)) / 2
	rank := func(x float64) int { return min(max(int(x), 0), n-1) }
	return paired{
		ratio: (ratios[(n-1)/2] + ratios[n/2]) / 2,
		lo:    ratios[rank(math.Floor(float64(n)/2-half))],
		hi:    ratios[rank(math.Ceil(float64(n)/2+half))],
		a:     (as[(n-1)/2] + as[n/2]) / 2,
	}
}
