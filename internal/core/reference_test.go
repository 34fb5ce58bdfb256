package core_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// The reference model: every node in one slice, no grid, no shards, no
// caches, no concurrency. An evaluation is a linear scan of all nodes in
// canonical grid order — (cell row, cell column, id) of the cell a node's
// position falls in — folded left to right. It shares no code with the
// engine beyond core.Partial, the field and the sampler it is handed.

const (
	refSide  = 2000.0
	refCell  = refSide / 32
	refNodes = 3000
)

type refNode struct {
	id  int32
	pos geom.Point
}

// refField places refNodes nodes strictly inside the region (so no cell
// clamping enters the reference's order) and sorts them canonically.
func refField(seed int64) []refNode {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]refNode, refNodes)
	for i := range nodes {
		nodes[i] = refNode{int32(i), geom.Pt(rng.Float64()*refSide, rng.Float64()*refSide)}
	}
	sortCanonical(nodes)
	return nodes
}

// placeInterleaved inserts nodes as streams strided streams placed one
// after another: stream k holds nodes k, k+streams, k+2·streams, … of the
// canonical order. One stream is the canonical order itself; more streams
// give the order a streams-way parallel placement could produce, inserting
// ids into the middle of cell buckets. The canonical bucket order must make
// every result independent of it.
func placeInterleaved(e *core.QueryEngine, nodes []refNode, streams int) {
	for k := 0; k < streams; k++ {
		for i := k; i < len(nodes); i += streams {
			e.UpsertNode(radio.NodeID(nodes[i].id), nodes[i].pos)
		}
	}
}

// sortCanonical orders nodes as the grid visits them: cell row, cell column,
// id.
func sortCanonical(nodes []refNode) {
	slices.SortFunc(nodes, func(a, b refNode) int {
		return cmp.Or(
			cmp.Compare(math.Floor(a.pos.Y/refCell), math.Floor(b.pos.Y/refCell)),
			cmp.Compare(math.Floor(a.pos.X/refCell), math.Floor(b.pos.X/refCell)),
			cmp.Compare(a.id, b.id))
	})
}

type refResult struct {
	data         core.Partial
	area, stale  int
	maxStaleness time.Duration
}

// refEvaluate is the freshness-windowed disk aggregate at boundary due.
func refEvaluate(nodes []refNode, center geom.Point, radius float64, due sim.Time, fresh time.Duration, sample core.Sampler, fld field.Field) refResult {
	out := refResult{data: core.NewPartial()}
	for _, n := range nodes {
		if n.pos.Dist2(center) > radius*radius {
			continue
		}
		out.area++
		at, ok := sample(n.id, due)
		if !ok || due-at > fresh || at > due {
			out.stale++
			continue
		}
		out.data.Add(fld.Sample(n.pos, at))
		out.maxStaleness = max(out.maxStaleness, due-at)
	}
	return out
}

// refQuery is one query of the differential run and the serve path it must
// take: a cold scan, a corridor-warm serve, or a pyramid serve.
type refQuery struct {
	id      uint32
	radius  float64
	start   geom.Point
	vel     geom.Vec
	cache   *corridor.Cache  // corridor-warm queries
	pyramid *pyramid.Pyramid // pyramid-served queries
}

func (q refQuery) at(t sim.Time) geom.Point { return q.start.Add(q.vel.Scale(t.Seconds())) }

// The fixtures both differential tests run under: one-second periods over a
// field that sleeps three and keeps a reading fresh for one, so every disk
// holds fresh and stale nodes; a smooth field, and a quantised one over which
// float addition is associative.
var refSpec = core.TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}

func refSampler() core.Sampler {
	const samplePeriod = 3 * time.Second
	return core.ScheduleSampler(samplePeriod, func(id int32) sim.Time {
		return sim.Time(uint64(id+1) * 2654435761 % uint64(samplePeriod))
	})
}

var refFields = []struct {
	name      string
	fld       field.Field
	quantised bool
}{
	{"gradient", field.Gradient{Base: 10, Slope: geom.V(0.01, 0.005)}, false},
	{"quantised", field.Func(func(p geom.Point, t sim.Time) float64 {
		return math.Mod(math.Floor(p.X/16+p.Y/32)+math.Floor(t.Seconds()*4), 512) / 64
	}), true},
}

// TestEvaluateDueMatchesNaiveReference drives the engine's three serve paths
// against the reference model, across worker counts and placement orders
// (shards=N places the field as N interleaved streams, see
// placeInterleaved): the cold and
// corridor-warm paths must agree bit for bit including Sum (they fold node
// by node in the reference's order), the pyramid path on everything but the
// grouping of Sum — and on Sum too over a quantised field, where float
// addition is associative.
func TestEvaluateDueMatchesNaiveReference(t *testing.T) {
	spec, sample := refSpec, refSampler()
	nodes := refField(5)
	for _, f := range refFields {
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", f.name, shards, workers), func(t *testing.T) {
					runDifferential(t, nodes, shards, spec, sample, f.fld, f.quantised, core.EngineConfig{Workers: workers})
				})
			}
		}
	}
}

func runDifferential(t *testing.T, nodes []refNode, streams int, spec core.TemporalSpec, sample core.Sampler, fld field.Field, quantised bool, cfg core.EngineConfig) {
	e := core.NewQueryEngine(geom.Square(refSide), refCell, fld, cfg)
	e.SetSampler(sample)
	// Inserted in an interleaving of the reference's order rather than by
	// id: the scan order must not depend on the insertion order.
	placeInterleaved(e, nodes, streams)

	rng := rand.New(rand.NewSource(6))
	var queries []refQuery
	for i := 0; i < 24; i++ {
		q := refQuery{
			id:     uint32(i + 1),
			radius: 150,
			start:  geom.Pt(500+rng.Float64()*1000, 500+rng.Float64()*1000),
			vel:    geom.V(rng.Float64()*8-4, rng.Float64()*8-4),
		}
		switch i % 3 {
		case 1:
			cache, err := corridor.NewCache(corridor.Config{
				Lookahead: 3, Model: corridor.ErrorModel{Base: 5}, Radius: q.radius, Period: spec.Period,
			}, e.Index())
			if err != nil {
				t.Fatal(err)
			}
			q.cache = cache
		case 2:
			q.radius, q.vel = 500, geom.Vec{}
			p, err := pyramid.New(e.Index(), pyramid.Config{Fresh: spec.Fresh, Sample: sample, Field: fld})
			if err != nil {
				t.Fatal(err)
			}
			q.pyramid = p
		}
		if err := e.RegisterTemporalE(q.id, q.radius, q.start, spec, 0); err != nil {
			t.Fatal(err)
		}
		if q.cache != nil {
			e.SetQueryWarmer(q.id, q.cache)
			q.cache.SetProfile(mobility.Profile{
				Path: mobility.LinearPath(q.start, q.vel, 0, time.Hour), Version: 1,
			}, 0)
		}
		if q.pyramid != nil {
			e.SetQueryAggIndex(q.id, q.pyramid)
		}
		queries = append(queries, q)
	}

	got := make([]core.WindowResult, len(queries))
	for k := 1; k <= 6; k++ {
		due := sim.Time(k) * spec.Period
		for _, q := range queries {
			e.UpdateWaypoint(q.id, q.at(due))
			if q.pyramid != nil {
				q.pyramid.EnsureEpoch(due)
			}
		}
		e.DispatchWorkers(len(queries), func(_, i int) {
			res, ok := e.EvaluateDueBatch(queries[i].id, due, nil)
			if !ok {
				t.Errorf("query %d: period %d not due at its boundary", queries[i].id, k)
			}
			got[i] = res
		})
		for i, q := range queries {
			res := got[i]
			want := refEvaluate(nodes, q.at(due), q.radius, due, spec.Fresh, sample, fld)
			if want.data.Count == 0 || want.stale == 0 {
				t.Fatalf("query %d k=%d: reference saw %d fresh / %d stale nodes; the setup must exercise both", q.id, k, want.data.Count, want.stale)
			}
			if res.CorridorHit != (q.cache != nil) || res.PyramidHit != (q.pyramid != nil) {
				t.Fatalf("query %d k=%d: served corridor=%v pyramid=%v, want %v/%v", q.id, k, res.CorridorHit, res.PyramidHit, q.cache != nil, q.pyramid != nil)
			}
			if res.AreaNodes != want.area || res.StaleNodes != want.stale || res.MaxStaleness != want.maxStaleness ||
				res.Data.Count != want.data.Count || res.Data.Min != want.data.Min || res.Data.Max != want.data.Max {
				t.Fatalf("query %d k=%d: got area %d stale %d staleness %v data %+v\nwant area %d stale %d staleness %v data %+v",
					q.id, k, res.AreaNodes, res.StaleNodes, res.MaxStaleness, res.Data, want.area, want.stale, want.maxStaleness, want.data)
			}
			if (q.pyramid == nil || quantised) && res.Data.Sum != want.data.Sum {
				t.Fatalf("query %d k=%d: Sum %v (bits %#x), reference %v (bits %#x)", q.id, k,
					res.Data.Sum, math.Float64bits(res.Data.Sum), want.data.Sum, math.Float64bits(want.data.Sum))
			}
			if q.cache != nil {
				q.cache.StageThrough(due)
			}
		}
	}
}

// TestWindowedPyramidMatchesCold registers Window-3 twins on the quantised
// field — one served through a tile pyramid, one by cold scans — and requires
// the pyramid twin to serve every period and both twins to agree bit for bit
// on every result, across worker counts and placement orders. Over a quantised field float
// addition is associative, so the pyramid's tile-major grouping of Sum cannot
// hide behind a tolerance.
func TestWindowedPyramidMatchesCold(t *testing.T) {
	spec, sample := refSpec, refSampler()
	spec.Window = 3
	nodes := refField(9)
	fld := refFields[1].fld
	for _, shards := range []int{1, 16} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				e := core.NewQueryEngine(geom.Square(refSide), refCell, fld, core.EngineConfig{Workers: workers})
				e.SetSampler(sample)
				placeInterleaved(e, nodes, shards)
				p, err := pyramid.New(e.Index(), pyramid.Config{Fresh: spec.Fresh, Sample: sample, Field: fld})
				if err != nil {
					t.Fatal(err)
				}
				// Twin i is ids 2i+1 (pyramid) and 2i+2 (cold), moving together.
				rng := rand.New(rand.NewSource(10))
				twins := make([]refQuery, 8)
				for i := range twins {
					twins[i] = refQuery{
						id:     uint32(2*i + 1),
						radius: 400 + rng.Float64()*200,
						start:  geom.Pt(600+rng.Float64()*800, 600+rng.Float64()*800),
						vel:    geom.V(rng.Float64()*8-4, rng.Float64()*8-4),
					}
					for _, id := range []uint32{twins[i].id, twins[i].id + 1} {
						if err := e.RegisterTemporalE(id, twins[i].radius, twins[i].start, spec, 0); err != nil {
							t.Fatal(err)
						}
					}
					e.SetQueryAggIndex(twins[i].id, p)
				}
				got := make([]core.WindowResult, 2*len(twins))
				for k := 1; k <= 8; k++ {
					due := sim.Time(k) * spec.Period
					p.EnsureEpoch(due)
					for _, q := range twins {
						e.UpdateWaypoint(q.id, q.at(due))
						e.UpdateWaypoint(q.id+1, q.at(due))
					}
					e.DispatchWorkers(len(got), func(_, i int) {
						res, ok := e.EvaluateDueBatch(uint32(i+1), due, nil)
						if !ok {
							t.Errorf("query %d: period %d not due at its boundary", i+1, k)
						}
						got[i] = res
					})
					for i := 0; i < len(got); i += 2 {
						pyr, cold := got[i], got[i+1]
						if cold.Data.Count == 0 || cold.StaleNodes == 0 {
							t.Fatalf("twin %d k=%d: %d fresh / %d stale nodes; the setup must exercise both", i/2, k, cold.Data.Count, cold.StaleNodes)
						}
						if !pyr.PyramidHit || cold.PyramidHit {
							t.Fatalf("twin %d k=%d: pyramid served %v/%v, want true/false", i/2, k, pyr.PyramidHit, cold.PyramidHit)
						}
						if k >= spec.Window && pyr.WindowPeriods != spec.Window {
							t.Fatalf("twin %d k=%d: merged %d periods, want %d", i/2, k, pyr.WindowPeriods, spec.Window)
						}
						if a, b := windowBits(pyr), windowBits(cold); a != b {
							t.Fatalf("twin %d k=%d: pyramid %+v\ncold    %+v", i/2, k, pyr, cold)
						}
					}
				}
			})
		}
	}
}

// windowBits is every field of a window result but the route flag
// PyramidHit, floats as their bits.
func windowBits(wr core.WindowResult) [16]uint64 {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	return [16]uint64{
		uint64(wr.Data.Count), math.Float64bits(wr.Data.Sum), math.Float64bits(wr.Data.Min), math.Float64bits(wr.Data.Max),
		uint64(wr.K), uint64(wr.Due), uint64(wr.EvaluatedAt), b(wr.Late), uint64(wr.Lateness),
		uint64(wr.AreaNodes), uint64(wr.StaleNodes), uint64(wr.MaxStaleness), uint64(wr.Prefetched),
		b(wr.Warmup), b(wr.CorridorHit), uint64(wr.WindowPeriods),
	}
}

// refWindow is the model of a Window query: the last w single-period
// reference evaluations merged oldest first, staleness re-aged to the newest
// boundary, exactly as TemporalSpec.Window promises.
func refWindow(last []refResult, dues []sim.Time) refResult {
	out := refResult{data: core.NewPartial()}
	for i, p := range last {
		out.data.Count += p.data.Count
		out.data.Sum += p.data.Sum
		if p.data.Count > 0 {
			out.data.Min = min(out.data.Min, p.data.Min)
			out.data.Max = max(out.data.Max, p.data.Max)
			out.maxStaleness = max(out.maxStaleness, p.maxStaleness+(dues[len(dues)-1]-dues[i]))
		}
		out.area += p.area
		out.stale += p.stale
	}
	return out
}

// columnFleet registers n radius-150 queries on e — cold scans, corridors
// without a planner and Window-3 queries in turn — enough of them, from 250
// up, that PopDue's payoff rule builds their boundary a reading column.
func columnFleet(t *testing.T, e *core.QueryEngine, spec core.TemporalSpec, n int) []refQuery {
	rng := rand.New(rand.NewSource(8))
	queries := make([]refQuery, n)
	for i := range queries {
		q := refQuery{
			id:     uint32(i + 1),
			radius: 150,
			start:  geom.Pt(400+rng.Float64()*1200, 400+rng.Float64()*1200),
			vel:    geom.V(rng.Float64()*8-4, rng.Float64()*8-4),
		}
		qs := spec
		if i%3 == 2 {
			qs.Window = 3
		}
		if err := e.RegisterTemporalE(q.id, q.radius, q.start, qs, 0); err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			cache, err := corridor.NewCache(corridor.Config{
				Lookahead: 3, Model: corridor.ErrorModel{Base: 5}, Radius: q.radius, Period: spec.Period,
			}, e.Index())
			if err != nil {
				t.Fatal(err)
			}
			q.cache = cache
			e.SetQueryWarmer(q.id, cache)
			cache.SetProfile(mobility.Profile{Path: mobility.LinearPath(q.start, q.vel, 0, time.Hour), Version: 1}, 0)
		}
		queries[i] = q
	}
	return queries
}

// popAndEvaluate drives one boundary the way Service.Advance does: PopDue,
// every popped handle evaluated across the worker pool, re-arms flushed.
func popAndEvaluate(t *testing.T, e *core.QueryEngine, queries []refQuery, due sim.Time) []core.WindowResult {
	rearms := make([]*core.RearmBatch, e.Workers())
	for i := range rearms {
		rearms[i] = e.NewRearmBatch()
	}
	for _, q := range queries {
		e.UpdateWaypoint(q.id, q.at(due))
	}
	batch := e.PopDue(due, nil)
	if len(batch) != len(queries) {
		t.Fatalf("due %v: popped %d of %d queries", due, len(batch), len(queries))
	}
	got := make([]core.WindowResult, len(batch))
	e.DispatchWorkers(len(batch), func(worker, i int) {
		got[batch[i].ID-1], _ = batch[i].Query.EvaluateDue(due, rearms[worker])
	})
	for _, rb := range rearms {
		e.FlushRearms(rb)
	}
	return got
}

// TestReadingColumnMatchesNaiveReference is the PopDue-driven arm of the
// differential: 252 queries whose boundaries the payoff rule gives a reading
// column must agree with the model bit for bit, Sum included, every scan of
// every boundary served from the column.
func TestReadingColumnMatchesNaiveReference(t *testing.T) {
	spec, sample := refSpec, refSampler()
	for _, f := range refFields {
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", f.name, shards, workers), func(t *testing.T) {
					runColumnDifferential(t, refField(5), shards, spec, sample, f.fld, core.EngineConfig{Workers: workers})
				})
			}
		}
	}
}

func runColumnDifferential(t *testing.T, nodes []refNode, streams int, spec core.TemporalSpec, sample core.Sampler, fld field.Field, cfg core.EngineConfig) {
	e := core.NewQueryEngine(geom.Square(refSide), refCell, fld, cfg)
	e.SetSampler(sample)
	placeInterleaved(e, nodes, streams)
	queries := columnFleet(t, e, spec, 252)

	history := make([][]refResult, len(queries)) // per query, every boundary so far
	var dues []sim.Time
	for k := 1; k <= 7; k++ {
		due := sim.Time(k) * spec.Period
		dues = append(dues, due)
		before := e.ColumnStats()
		got := popAndEvaluate(t, e, queries, due)
		after := e.ColumnStats()
		if after.Builds != before.Builds+1 || after.Scans != before.Scans+uint64(len(queries)) {
			t.Fatalf("k=%d: stats %+v -> %+v, want one column built and every scan served from it", k, before, after)
		}
		for i, q := range queries {
			res := got[i]
			want := refEvaluate(nodes, q.at(due), q.radius, due, spec.Fresh, sample, fld)
			if want.data.Count == 0 || want.stale == 0 {
				t.Fatalf("query %d k=%d: reference saw %d fresh / %d stale nodes; the setup must exercise both", q.id, k, want.data.Count, want.stale)
			}
			history[i] = append(history[i], want)
			if i%3 == 2 {
				lo := max(0, k-3)
				want = refWindow(history[i][lo:], dues[lo:])
			}
			if res.K != k || res.PyramidHit || res.CorridorHit != (q.cache != nil) {
				t.Fatalf("query %d k=%d: period %d served corridor=%v pyramid=%v", q.id, k, res.K, res.CorridorHit, res.PyramidHit)
			}
			if res.AreaNodes != want.area || res.StaleNodes != want.stale || res.MaxStaleness != want.maxStaleness ||
				res.Data.Count != want.data.Count || res.Data.Min != want.data.Min || res.Data.Max != want.data.Max ||
				math.Float64bits(res.Data.Sum) != math.Float64bits(want.data.Sum) {
				t.Fatalf("query %d k=%d: got area %d stale %d staleness %v data %+v\nwant area %d stale %d staleness %v data %+v",
					q.id, k, res.AreaNodes, res.StaleNodes, res.MaxStaleness, res.Data, want.area, want.stale, want.maxStaleness, want.data)
			}
			if q.cache != nil {
				q.cache.StageThrough(due)
			}
		}
	}

	// Five such queries read far less than every node twice: no column.
	small := core.NewQueryEngine(geom.Square(refSide), refCell, fld, cfg)
	small.SetSampler(sample)
	for _, n := range nodes {
		small.UpsertNode(radio.NodeID(n.id), n.pos)
	}
	few := columnFleet(t, small, spec, 5)
	popAndEvaluate(t, small, few, spec.Period)
	if st := small.ColumnStats(); st != (core.ColumnStats{}) {
		t.Fatalf("a batch of %d queries built a column: %+v", len(few), st)
	}
}
