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
	slices.SortFunc(nodes, func(a, b refNode) int {
		return cmp.Or(
			cmp.Compare(math.Floor(a.pos.Y/refCell), math.Floor(b.pos.Y/refCell)),
			cmp.Compare(math.Floor(a.pos.X/refCell), math.Floor(b.pos.X/refCell)),
			cmp.Compare(a.id, b.id))
	})
	return nodes
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

// TestEvaluateDueMatchesNaiveReference drives the engine's three serve paths
// against the reference model, across engine sizings: the cold and
// corridor-warm paths must agree bit for bit including Sum (they fold node
// by node in the reference's order), the pyramid path on everything but the
// grouping of Sum — and on Sum too over a quantised field, where float
// addition is associative.
func TestEvaluateDueMatchesNaiveReference(t *testing.T) {
	const samplePeriod = 3 * time.Second
	spec := core.TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
	sample := core.ScheduleSampler(samplePeriod, func(id int32) sim.Time {
		return sim.Time(uint64(id+1) * 2654435761 % uint64(samplePeriod))
	})
	fields := []struct {
		name      string
		fld       field.Field
		quantised bool
	}{
		{"gradient", field.Gradient{Base: 10, Slope: geom.V(0.01, 0.005)}, false},
		{"quantised", field.Func(func(p geom.Point, t sim.Time) float64 {
			return math.Mod(math.Floor(p.X/16+p.Y/32)+math.Floor(t.Seconds()*4), 512) / 64
		}), true},
	}
	nodes := refField(5)
	for _, f := range fields {
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", f.name, shards, workers), func(t *testing.T) {
					runDifferential(t, nodes, spec, sample, f.fld, f.quantised, core.EngineConfig{Shards: shards, Workers: workers})
				})
			}
		}
	}
}

func runDifferential(t *testing.T, nodes []refNode, spec core.TemporalSpec, sample core.Sampler, fld field.Field, quantised bool, cfg core.EngineConfig) {
	e := core.NewQueryEngine(geom.Square(refSide), refCell, fld, cfg)
	e.SetSampler(sample)
	// Inserted through the worker pool, in the reference's order rather than
	// by id: with several workers the insertion interleaving is arbitrary.
	e.Dispatch(len(nodes), func(i int) { e.UpsertNode(radio.NodeID(nodes[i].id), nodes[i].pos) })

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
		e.Dispatch(len(queries), func(i int) {
			res, ok := e.EvaluateDue(queries[i].id, due)
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
