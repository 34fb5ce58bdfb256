package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("clock = %v, want 10s", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine(1)
	var firedAt Time
	e.Schedule(5*time.Second, func() {
		e.After(2*time.Second, func() { firedAt = e.Now() })
	})
	e.Run(time.Minute)
	if firedAt != 7*time.Second {
		t.Errorf("After fired at %v, want 7s", firedAt)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine(1)
	var firedAt Time = -1
	e.Schedule(5*time.Second, func() {
		e.After(-3*time.Second, func() { firedAt = e.Now() })
	})
	e.Run(time.Minute)
	if firedAt != 5*time.Second {
		t.Errorf("negative After fired at %v, want 5s (clamped)", firedAt)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Second, func() {})
	e.Run(time.Minute)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(time.Second, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil callback should panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(tm)
	e.Cancel(tm) // double cancel is a no-op
	e.Cancel(nil)
	e.Run(time.Minute)
	if fired {
		t.Error("canceled timer fired")
	}
	if !tm.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var victim *Timer
	victim = e.Schedule(2*time.Second, func() { fired = true })
	e.Schedule(1*time.Second, func() { e.Cancel(victim) })
	e.Run(time.Minute)
	if fired {
		t.Error("timer canceled mid-run still fired")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10*time.Second, func() { fired = true })
	e.Run(5 * time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 5*time.Second {
		t.Errorf("clock = %v, want 5s", e.Now())
	}
	e.Run(15 * time.Second)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() {})
	}
	e.Run(time.Second)
	if e.EventsFired() != 5 {
		t.Errorf("EventsFired = %d, want 5", e.EventsFired())
	}
}

func TestRNGStreamsIndependentOfCreationOrder(t *testing.T) {
	e1 := NewEngine(99)
	e2 := NewEngine(99)
	// Create streams in different orders; sequences must match per name.
	a1 := e1.RNG("mac").Int63()
	b1 := e1.RNG("mobility").Int63()
	b2 := e2.RNG("mobility").Int63()
	a2 := e2.RNG("mac").Int63()
	if a1 != a2 || b1 != b2 {
		t.Errorf("streams depend on creation order: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
	// Same name returns the same stream instance.
	if e1.RNG("mac") != e1.RNG("mac") {
		t.Error("RNG should return a cached stream per name")
	}
}

func TestRNGStreamsDifferAcrossSeeds(t *testing.T) {
	x := NewEngine(1).RNG("mac").Int63()
	y := NewEngine(2).RNG("mac").Int63()
	if x == y {
		t.Error("different seeds produced identical stream output")
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical traces.
func TestDeterminism(t *testing.T) {
	runTrace := func(seed int64) []Time {
		e := NewEngine(seed)
		rng := e.RNG("load")
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 500 {
				e.After(time.Duration(rng.Intn(1000))*time.Millisecond, spawn)
				if rng.Intn(3) == 0 {
					e.After(time.Duration(rng.Intn(1000))*time.Millisecond, spawn)
				}
			}
		}
		e.Schedule(0, spawn)
		e.Run(time.Hour)
		return trace
	}
	a := runTrace(12345)
	b := runTrace(12345)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays scheduled up front, events
// fire in non-decreasing time order.
func TestQuickMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Time(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, e.Now())
			})
		}
		e.Run(time.Duration(1<<16) * time.Millisecond)
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	rng := e.RNG("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(rng.Intn(1000))*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.Run(e.Now() + time.Second)
		}
	}
	e.Run(e.Now() + time.Hour)
}
