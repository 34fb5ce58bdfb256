package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// TestEngineChurnUnderRace hammers the engine with every mutating operation
// at once — registration, deregistration, re-registration of freed ids,
// waypoint updates, registry walks, schedule pops with batched re-arms, and
// streaming evaluations — and is meaningful mainly under
// `go test -race`. It pins the service-shaped contract: users may join and
// leave while evaluation is in flight. The pops also build and recycle
// reading columns that the streaming evaluations may be folding through.
func TestEngineChurnUnderRace(t *testing.T) {
	region := geom.Square(1000)
	e := NewQueryEngine(region, 100, field.Uniform{Value: 20}, EngineConfig{Workers: 8})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}

	const (
		stable   = 24 // queries that live for the whole test
		wide     = 8  // radius-400 queries only the clock driver evaluates
		churners = 8  // goroutines cycling their own id through reg/dereg
		loops    = 60
	)
	spec := TemporalSpec{Period: time.Second, Deadline: 50 * time.Millisecond, Fresh: time.Second}
	for u := 1; u <= stable; u++ {
		if err := e.RegisterTemporalE(uint32(u), 150, geom.Pt(float64(u*10), 500), spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Every pop holds the wide queries' boundary, which their radii alone
	// repay a reading column for.
	for u := 1; u <= wide; u++ {
		if err := e.RegisterTemporalE(uint32(2000+u), 400, geom.Pt(float64(u*100), 500), spec, 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Churners: deregister and immediately re-register the same id, so a
	// walk or pop in flight keeps meeting queries that appear and disappear.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := uint32(1000 + c)
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < loops; i++ {
				if err := e.RegisterTemporalE(id, 150, region.UniformPoint(rng), spec, 0); err != nil {
					t.Errorf("churner %d: re-register of freed id: %v", c, err)
					return
				}
				e.UpdateWaypoint(id, region.UniformPoint(rng))
				_, _ = e.EvaluateDueBatch(id, time.Second, nil)
				e.Deregister(id)
			}
		}(c)
	}
	// Waypoint writers over the stable population.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < loops; i++ {
				e.UpdateWaypoint(uint32(rng.Intn(stable)+1), region.UniformPoint(rng))
			}
		}(w)
	}
	// evaluated counts the periods each stable query actually returned,
	// across all evaluators.
	var evaluated [stable + 1]atomic.Int64
	// The whole-registry readers racing the churn: registry walks, and a clock
	// driver popping every due boundary — churners' spent handles included —
	// and evaluating it into a re-arm batch it flushes after each pop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rb := e.NewRearmBatch()
		var due []DueEntry
		for i := 0; i < loops/2; i++ {
			if qs := e.Queries(); len(qs) < stable {
				t.Errorf("walk %d returned %d queries, below the stable population %d", i, len(qs), stable)
				return
			}
			now := sim.Time(i) * time.Second
			due = e.PopDue(now, due[:0])
			for _, d := range due {
				if _, ok := d.Query.EvaluateDue(now, rb); ok && d.ID <= stable {
					evaluated[d.ID].Add(1)
				}
			}
			e.FlushRearms(rb)
		}
	}()
	// Streaming evaluations of the stable queries, two goroutines per query
	// id so EvaluateDue's period counter is contested.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= loops; i++ {
				for u := 1; u <= stable; u++ {
					if _, ok := e.EvaluateDueBatch(uint32(u), sim.Time(i)*time.Second, nil); ok {
						evaluated[u].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()

	if n := e.QueryCount(); n != stable+wide {
		t.Fatalf("QueryCount after churn = %d, want %d", n, stable+wide)
	}
	if st := e.ColumnStats(); st.Builds < loops/2-1 {
		t.Fatalf("column stats %+v: each of the %d pops past the first must build a column", st, loops/2-1)
	}
	// Each stable query was offered period indices 1..loops by the racing
	// evaluators; EvaluateDue must have advanced each exactly once per due
	// period, never double-counting.
	for u := 1; u <= stable; u++ {
		k, _, ok := e.NextDue(uint32(u))
		if !ok {
			t.Fatalf("query %d lost its state", u)
		}
		if n := evaluated[u].Load(); n != loops || k != loops+1 {
			t.Errorf("query %d: evaluated %d periods (next %d), want %d", u, n, k, loops)
		}
	}
}
