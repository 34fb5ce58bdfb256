package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
)

func testEngine(cfg EngineConfig) *QueryEngine {
	return NewQueryEngine(geom.Square(1000), 100, field.Gradient{Base: 10, Slope: geom.V(0.01, 0)}, cfg)
}

func TestQueryEngineEvaluateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	region := geom.Square(1000)
	fld := field.Gradient{Base: 10, Slope: geom.V(0.01, 0.02)}
	e := NewQueryEngine(region, 100, fld, EngineConfig{Shards: 4, Workers: 4})
	positions := make(map[radio.NodeID]geom.Point)
	for i := 0; i < 500; i++ {
		p := region.UniformPoint(rng)
		positions[radio.NodeID(i)] = p
		e.UpsertNode(radio.NodeID(i), p)
	}
	at := 5 * time.Second
	for trial := 0; trial < 20; trial++ {
		center := region.UniformPoint(rng)
		radius := 50 + rng.Float64()*300
		qid := uint32(trial + 1)
		e.Register(qid, radius, center)
		res, ok := e.Evaluate(qid, at)
		if !ok {
			t.Fatalf("trial %d: registered query not found", trial)
		}
		// Brute force in canonical grid order: every in-area node, sorted by
		// (cell row, cell column, id) of the 100 m cell it sits in.
		var wantNodes []radio.NodeID
		for id := radio.NodeID(0); id < 500; id++ {
			if positions[id].Within(center, radius) {
				wantNodes = append(wantNodes, id)
			}
		}
		slices.SortFunc(wantNodes, func(a, b radio.NodeID) int {
			pa, pb := positions[a], positions[b]
			return cmp.Or(
				cmp.Compare(int(pa.Y/100), int(pb.Y/100)),
				cmp.Compare(int(pa.X/100), int(pb.X/100)),
				cmp.Compare(a, b))
		})
		want := NewPartial()
		for _, id := range wantNodes {
			want.Add(fld.Sample(positions[id], at))
		}
		if len(res.Nodes) != len(wantNodes) {
			t.Fatalf("trial %d: %d nodes, want %d", trial, len(res.Nodes), len(wantNodes))
		}
		for i := range res.Nodes {
			if res.Nodes[i] != wantNodes[i] {
				t.Fatalf("trial %d: nodes %v, want %v", trial, res.Nodes, wantNodes)
			}
		}
		if res.Data.Count != want.Count || res.Data.Sum != want.Sum ||
			res.Data.Min != want.Min || res.Data.Max != want.Max {
			t.Fatalf("trial %d: partial %+v, want %+v", trial, res.Data, want)
		}
	}
}

func TestQueryEngineShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	region := geom.Square(2000)
	sharded := NewQueryEngine(region, 150, field.Uniform{Value: 20}, EngineConfig{Shards: 8, Workers: 8})
	serial := NewQueryEngine(region, 150, field.Uniform{Value: 20}, EngineConfig{Shards: 1, Workers: 1})
	for i := 0; i < 2000; i++ {
		p := region.UniformPoint(rng)
		sharded.UpsertNode(radio.NodeID(i), p)
		serial.UpsertNode(radio.NodeID(i), p)
	}
	for u := 1; u <= 200; u++ {
		p := region.UniformPoint(rng)
		sharded.Register(uint32(u), 150, p)
		serial.Register(uint32(u), 150, p)
	}
	at := time.Second
	par := sharded.EvaluateAll(at)
	ser := serial.EvaluateAll(at)
	if len(par) != 200 || len(ser) != 200 {
		t.Fatalf("result counts %d/%d, want 200", len(par), len(ser))
	}
	for i := range par {
		if par[i].QueryID != ser[i].QueryID || par[i].Center != ser[i].Center {
			t.Fatalf("result %d: header mismatch %+v vs %+v", i, par[i], ser[i])
		}
		if len(par[i].Nodes) != len(ser[i].Nodes) {
			t.Fatalf("result %d: %d nodes vs %d", i, len(par[i].Nodes), len(ser[i].Nodes))
		}
		for j := range par[i].Nodes {
			if par[i].Nodes[j] != ser[i].Nodes[j] {
				t.Fatalf("result %d: node order diverged", i)
			}
		}
		if par[i].Data.Sum != ser[i].Data.Sum || par[i].Data.Count != ser[i].Data.Count {
			t.Fatalf("result %d: aggregate diverged", i)
		}
	}
}

func TestQueryEngineRegistry(t *testing.T) {
	e := testEngine(EngineConfig{})
	e.Register(7, 100, geom.Pt(1, 2))
	if n := e.QueryCount(); n != 1 {
		t.Fatalf("QueryCount = %d, want 1", n)
	}
	if !e.UpdateWaypoint(7, geom.Pt(3, 4)) {
		t.Error("UpdateWaypoint of registered query reported false")
	}
	if e.UpdateWaypoint(8, geom.Pt(0, 0)) {
		t.Error("UpdateWaypoint of unknown query reported true")
	}
	if res, ok := e.Evaluate(7, 0); !ok || res.Center != geom.Pt(3, 4) {
		t.Errorf("Evaluate after waypoint update: %+v, %v", res, ok)
	}
	if _, ok := e.Evaluate(999, 0); ok {
		t.Error("Evaluate of unknown query reported ok")
	}
	e.Deregister(7)
	e.Deregister(7) // idempotent
	if n := e.QueryCount(); n != 0 {
		t.Fatalf("QueryCount after deregister = %d, want 0", n)
	}
}

func TestQueryEngineRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero query id", func() { testEngine(EngineConfig{}).Register(0, 10, geom.Pt(0, 0)) }},
		{"non-positive radius", func() { testEngine(EngineConfig{}).Register(1, 0, geom.Pt(0, 0)) }},
		{"duplicate id", func() {
			e := testEngine(EngineConfig{})
			e.Register(1, 10, geom.Pt(0, 0))
			e.Register(1, 10, geom.Pt(0, 0))
		}},
		{"negative shards", func() { testEngine(EngineConfig{Shards: -1}) }},
		{"negative workers", func() { testEngine(EngineConfig{Workers: -1}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestQueryEngineConcurrentUsers exercises concurrent registration,
// waypoint updates, node churn, and evaluation; run with -race.
func TestQueryEngineConcurrentUsers(t *testing.T) {
	region := geom.Square(1000)
	e := NewQueryEngine(region, 100, field.Uniform{Value: 20}, EngineConfig{Shards: 8, Workers: 8})
	const users = 64
	var wg sync.WaitGroup
	for u := 1; u <= users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u)))
			e.Register(uint32(u), 150, region.UniformPoint(rng))
			for i := 0; i < 50; i++ {
				e.UpdateWaypoint(uint32(u), region.UniformPoint(rng))
				if _, ok := e.Evaluate(uint32(u), 0); !ok {
					t.Errorf("user %d: own query vanished", u)
					return
				}
			}
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			e.UpsertNode(radio.NodeID(i%100), region.UniformPoint(rng))
			if i%10 == 0 {
				e.RemoveNode(radio.NodeID(rng.Intn(100)))
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = e.EvaluateAll(0)
		}
	}()
	wg.Wait()
	if n := e.QueryCount(); n != users {
		t.Fatalf("QueryCount = %d, want %d", n, users)
	}
	if got := len(e.EvaluateAll(0)); got != users {
		t.Fatalf("EvaluateAll returned %d results, want %d", got, users)
	}
}

func TestDispatchCoversAllIndicesOnce(t *testing.T) {
	e := testEngine(EngineConfig{Workers: 7})
	const n = 1000
	var hits [n]int32
	var mu sync.Mutex
	e.Dispatch(n, func(i int) {
		mu.Lock()
		hits[i]++
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d dispatched %d times", i, h)
		}
	}
	e.Dispatch(0, func(int) { t.Error("fn called for n=0") })
}

// TestQueryHandleFitsItsSizeClass pins the handle at 208 bytes, a malloc size
// class exactly: a ninth word rounds every subscriber up to 224.
func TestQueryHandleFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Query{}); n > 208 {
		t.Fatalf("core.Query is %d bytes, want at most 208", n)
	}
}
