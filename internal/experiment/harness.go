package experiment

import (
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// sensorField is what every arm of a temporal harness run shares: where the
// nodes sit, when each samples, and what they measure.
type sensorField struct {
	region  geom.Rect
	fld     field.Field
	nodePos []geom.Point
	// sampler is the field's duty cycle: node i refreshes its reading every
	// sample period, at its own phase.
	sampler core.Sampler
}

// drawSensorField draws the node placement and then the sampling phases from
// rng, in that order — the draw order the harness digests are pinned to — so
// callers draw their users from the same stream afterwards.
func drawSensorField(rng *rand.Rand, region geom.Rect, fld field.Field, nodes int, samplePeriod time.Duration) *sensorField {
	f := &sensorField{region: region, fld: fld, nodePos: make([]geom.Point, nodes)}
	for i := range f.nodePos {
		f.nodePos[i] = region.UniformPoint(rng)
	}
	phase := make([]sim.Time, nodes)
	for i := range phase {
		phase[i] = time.Duration(rng.Int63n(int64(samplePeriod)))
	}
	f.sampler = core.ScheduleSampler(samplePeriod, func(id int32) sim.Time { return phase[id] })
	return f
}

// engine stands a fresh engine up over the field: index cell size cell,
// the field's sampling schedule installed, every node indexed.
func (f *sensorField) engine(cell float64, shards, workers int) (*core.QueryEngine, error) {
	eng, err := core.NewQueryEngineE(f.region, cell, f.fld, core.EngineConfig{Shards: shards, Workers: workers})
	if err != nil {
		return nil, err
	}
	eng.SetSampler(f.sampler)
	eng.Dispatch(len(f.nodePos), func(i int) {
		eng.UpsertNode(radio.NodeID(i), f.nodePos[i])
	})
	return eng, nil
}

// duePump is the shared clock driver of the churn, prefetch, corridor, and
// pyramid harnesses. Per tick it pops every query with a period
// boundary at or before t — in the scheduler's deterministic (due, id)
// order — and drains each popped query's due periods on a dispatch worker.
// A tick on which nothing is due (most of them, at Tick << Period) is the
// scheduler's O(stripes) idle peek.
//
// U is the harness's per-user state, registered as each query's owner
// (core.QueryEngine.RegisterQuery). The pump owns the pop scratch so
// steady-state ticks do not allocate; one pump drives one engine from one
// goroutine.
type duePump[U any] struct {
	eng *core.QueryEngine
	due []core.DueEntry
}

// tick advances the pump to virtual time t: every query with a boundary due
// by t is popped and drained on a dispatch worker, calling step once per
// due boundary in ascending boundary order. step reports whether draining
// this query may continue; returning false (the harness's evaluation
// refused) stops its loop. step runs concurrently for distinct users and
// must only touch u's own state, its query handle, and harness state that is
// itself safe to share.
func (p *duePump[U]) tick(t sim.Time, step func(u U, q *core.Query, boundary sim.Time) bool) {
	p.due = p.eng.PopDue(t, p.due[:0])
	due := p.due
	p.eng.Dispatch(len(due), func(i int) {
		q := due[i].Query
		u := q.Owner().(U)
		for {
			_, boundary := q.NextDue()
			if boundary > t || !step(u, q, boundary) {
				return
			}
		}
	})
}
