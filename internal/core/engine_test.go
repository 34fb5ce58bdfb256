package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

func testEngine(cfg EngineConfig) *QueryEngine {
	return NewQueryEngine(geom.Square(1000), 100, field.Gradient{Base: 10, Slope: geom.V(0.01, 0)}, cfg)
}

func TestQueryEngineRegistry(t *testing.T) {
	e := testEngine(EngineConfig{})
	// Node 0 is in range of (3, 4) but not of (1, 2), where query 7 starts.
	e.UpsertNode(0, geom.Pt(102, 4))
	if err := e.RegisterTemporalE(7, 100, geom.Pt(1, 2), TemporalSpec{Period: time.Second}, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.QueryCount(); n != 1 {
		t.Fatalf("QueryCount = %d, want 1", n)
	}
	if !e.UpdateWaypoint(7, geom.Pt(3, 4)) {
		t.Error("UpdateWaypoint of registered query reported false")
	}
	if e.UpdateWaypoint(8, geom.Pt(0, 0)) {
		t.Error("UpdateWaypoint of unknown query reported true")
	}
	if res, ok := e.EvaluateDueBatch(7, time.Second, nil); !ok || res.AreaNodes != 1 {
		t.Errorf("EvaluateDue after waypoint update: %+v, %v", res, ok)
	}
	if _, ok := e.EvaluateDueBatch(999, time.Second, nil); ok {
		t.Error("EvaluateDue of unknown query reported ok")
	}
	if qs := e.Queries(); len(qs) != 1 || qs[0].id != 7 {
		t.Fatalf("Queries = %v, want query 7 alone", qs)
	}
	e.Deregister(7)
	e.Deregister(7) // idempotent
	if n, qs := e.QueryCount(), e.Queries(); n != 0 || len(qs) != 0 {
		t.Fatalf("after deregister: QueryCount %d, %d queries, want 0", n, len(qs))
	}
}

func TestQueryEngineRejectsBadConfig(t *testing.T) {
	spec := TemporalSpec{Period: time.Second}
	for _, tc := range []struct {
		name string
		fn   func() error
	}{
		{"zero query id", func() error { return testEngine(EngineConfig{}).RegisterTemporalE(0, 10, geom.Pt(0, 0), spec, 0) }},
		{"non-positive radius", func() error { return testEngine(EngineConfig{}).RegisterTemporalE(1, 0, geom.Pt(0, 0), spec, 0) }},
		{"duplicate id", func() error {
			e := testEngine(EngineConfig{})
			if err := e.RegisterTemporalE(1, 10, geom.Pt(0, 0), spec, 0); err != nil {
				t.Fatal(err)
			}
			return e.RegisterTemporalE(1, 10, geom.Pt(0, 0), spec, 0)
		}},
		{"negative workers", func() error { testEngine(EngineConfig{Workers: -1}); return nil }},
	} {
		func() {
			defer func() { recover() }() // NewQueryEngine refuses by panicking
			if tc.fn() == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}()
	}
}

// TestUpsertNodeAfterRegisterPanics pins the fixed-field contract: the index
// takes writes until the first query registers, and refuses them after.
func TestUpsertNodeAfterRegisterPanics(t *testing.T) {
	e := testEngine(EngineConfig{})
	e.UpsertNode(0, geom.Pt(10, 10))
	e.UpsertNode(0, geom.Pt(20, 20)) // still placing: a move is allowed
	if err := e.RegisterTemporalE(1, 10, geom.Pt(0, 0), TemporalSpec{Period: time.Second}, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UpsertNode after RegisterQuery did not panic")
		}
	}()
	e.UpsertNode(1, geom.Pt(30, 30))
}

// TestQueryEngineConcurrentUsers exercises concurrent registration,
// waypoint updates, evaluation and registry walks over a placed field; run
// with -race.
func TestQueryEngineConcurrentUsers(t *testing.T) {
	region := geom.Square(1000)
	e := NewQueryEngine(region, 100, field.Uniform{Value: 20}, EngineConfig{Workers: 8})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}
	const users = 64
	var wg sync.WaitGroup
	for u := 1; u <= users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u)))
			if err := e.RegisterTemporalE(uint32(u), 150, region.UniformPoint(rng), TemporalSpec{Period: time.Second}, 0); err != nil {
				t.Errorf("user %d: %v", u, err)
				return
			}
			for i := 1; i <= 50; i++ {
				e.UpdateWaypoint(uint32(u), region.UniformPoint(rng))
				if _, ok := e.EvaluateDueBatch(uint32(u), sim.Time(i)*time.Second, nil); !ok {
					t.Errorf("user %d: own query vanished", u)
					return
				}
			}
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = e.Queries()
		}
	}()
	wg.Wait()
	if n := e.QueryCount(); n != users {
		t.Fatalf("QueryCount = %d, want %d", n, users)
	}
	if got, armed := len(e.Queries()), e.ScheduleLen(); got != users || armed != users {
		t.Fatalf("Queries returned %d handles and %d are armed, want %d", got, armed, users)
	}
}

func TestDispatchCoversAllIndicesOnce(t *testing.T) {
	e := testEngine(EngineConfig{Workers: 7})
	const n = 1000
	var hits [n]int32
	var mu sync.Mutex
	e.DispatchWorkers(n, func(w, i int) {
		if w < 0 || w >= e.Workers() {
			t.Errorf("index %d ran on worker %d of %d", i, w, e.Workers())
		}
		mu.Lock()
		hits[i]++
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d dispatched %d times", i, h)
		}
	}
	e.DispatchWorkers(0, func(int, int) { t.Error("fn called for n=0") })
}

// TestQueryHandleFitsItsSizeClass pins the handle at 208 bytes, a malloc size
// class exactly: a ninth word rounds every subscriber up to 224.
func TestQueryHandleFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Query{}); n > 208 {
		t.Fatalf("core.Query is %d bytes, want at most 208", n)
	}
}
