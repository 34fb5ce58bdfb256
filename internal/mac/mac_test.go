package mac

import (
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// rig bundles an engine, medium and a set of MACs for link-layer tests.
type rig struct {
	eng *sim.Engine
	med *radio.Medium
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	med := radio.NewMedium(eng, geom.Square(450), radio.DefaultParams())
	return &rig{eng: eng, med: med}
}

func (r *rig) node(id radio.NodeID, pos geom.Point, cfg Config, role Role) *MAC {
	rad := r.med.Attach(id, pos, nil)
	m := New(r.eng, rad, cfg, role)
	m.Start()
	return m
}

type inbox struct {
	msgs []any
	srcs []radio.NodeID
}

func (ib *inbox) recv(src radio.NodeID, payload any) {
	ib.srcs = append(ib.srcs, src)
	ib.msgs = append(ib.msgs, payload)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(3 * time.Second)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero active window", func(c *Config) { c.ActiveWindow = 0 }},
		{"sleep shorter than active", func(c *Config) { c.SleepPeriod = 50 * time.Millisecond }},
		{"zero queue", func(c *Config) { c.QueueCap = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig(3 * time.Second)
			tt.mutate(&c)
			if c.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestWindowHelpers(t *testing.T) {
	c := DefaultConfig(3 * time.Second)
	if !c.InActiveWindow(0) || !c.InActiveWindow(99*time.Millisecond) {
		t.Error("start of period should be in active window")
	}
	if c.InActiveWindow(100 * time.Millisecond) {
		t.Error("active window is half-open")
	}
	if c.InActiveWindow(time.Second) {
		t.Error("mid-period should be asleep")
	}
	if !c.InActiveWindow(3 * time.Second) {
		t.Error("next period start should be awake")
	}
	if got := c.WindowStart(4 * time.Second); got != 3*time.Second {
		t.Errorf("WindowStart(4s) = %v, want 3s", got)
	}
	if got := c.NextWindowStart(4 * time.Second); got != 6*time.Second {
		t.Errorf("NextWindowStart(4s) = %v, want 6s", got)
	}
	if got := c.NextWindowStart(3 * time.Second); got != 6*time.Second {
		t.Errorf("NextWindowStart(3s) = %v, want 6s (strictly after)", got)
	}
}

func TestBroadcastTime(t *testing.T) {
	c := DefaultConfig(3 * time.Second)
	if got := c.BroadcastTime(10 * time.Millisecond); got != 10*time.Millisecond {
		t.Errorf("early in window: BroadcastTime = %v, want now", got)
	}
	// Past 3/4 of the window: wait for the next one.
	if got := c.BroadcastTime(80 * time.Millisecond); got != 3*time.Second {
		t.Errorf("late in window: BroadcastTime = %v, want 3s", got)
	}
	if got := c.BroadcastTime(time.Second); got != 3*time.Second {
		t.Errorf("mid-sleep: BroadcastTime = %v, want 3s", got)
	}
}

func TestUnicastDeliveryWithAck(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleAlwaysOn)
	var got inbox
	b.OnReceive(got.recv)

	var acked, called bool
	r.eng.Schedule(0, func() {
		a.Send(1, "hello", 60, func(ok bool) { called, acked = true, ok })
	})
	r.eng.Run(time.Second)

	if len(got.msgs) != 1 || got.msgs[0] != "hello" || got.srcs[0] != 0 {
		t.Fatalf("receiver inbox = %v from %v", got.msgs, got.srcs)
	}
	if !called || !acked {
		t.Errorf("done callback: called=%v ok=%v", called, acked)
	}
	if s := a.Stats(); s.UnicastSent != 1 || s.Drops != 0 {
		t.Errorf("sender stats = %+v", s)
	}
	if s := b.Stats(); s.AcksSent != 1 || s.Delivered != 1 {
		t.Errorf("receiver stats = %+v", s)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(100, 100), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(150, 100), cfg, RoleAlwaysOn)
	c := r.node(2, geom.Pt(100, 150), cfg, RoleAlwaysOn)
	far := r.node(3, geom.Pt(400, 400), cfg, RoleAlwaysOn)
	var ib, ic, ifar inbox
	b.OnReceive(ib.recv)
	c.OnReceive(ic.recv)
	far.OnReceive(ifar.recv)

	r.eng.Schedule(0, func() { a.Broadcast("announce", 60) })
	r.eng.Run(time.Second)

	if len(ib.msgs) != 1 || len(ic.msgs) != 1 {
		t.Errorf("in-range receivers got %d/%d messages, want 1/1", len(ib.msgs), len(ic.msgs))
	}
	if len(ifar.msgs) != 0 {
		t.Error("out-of-range node received broadcast")
	}
	// Broadcasts are not acknowledged.
	if s := b.Stats(); s.AcksSent != 0 {
		t.Errorf("broadcast was acked: %+v", s)
	}
}

func TestUnicastToSleepingNodeDrops(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)
	var got inbox
	b.OnReceive(got.recv)

	var ok, called bool
	// Send mid-sleep (well outside the 100ms active window).
	r.eng.Schedule(time.Second, func() {
		a.Send(1, "x", 60, func(res bool) { called, ok = true, res })
	})
	r.eng.Run(2 * time.Second)

	if !called || ok {
		t.Errorf("done = (%v, %v), want called with failure", called, ok)
	}
	if len(got.msgs) != 0 {
		t.Error("sleeping node received unicast")
	}
	s := a.Stats()
	if s.Drops != 1 {
		t.Errorf("Drops = %d, want 1", s.Drops)
	}
	if s.AckTimeouts != uint64(retryLimit)+1 {
		t.Errorf("AckTimeouts = %d, want %d", s.AckTimeouts, retryLimit+1)
	}
}

func TestDutyCycleSchedule(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)

	samples := []struct {
		at    sim.Time
		awake bool
	}{
		{50 * time.Millisecond, true},   // first active window
		{200 * time.Millisecond, false}, // asleep after window
		{2900 * time.Millisecond, false},
		{3050 * time.Millisecond, true}, // second window
		{4 * time.Second, false},
	}
	for _, s := range samples {
		s := s
		r.eng.Schedule(s.at, func() {
			if b.radio.On() != s.awake {
				t.Errorf("at %v: awake = %v, want %v", s.at, b.radio.On(), s.awake)
			}
		})
	}
	r.eng.Run(5 * time.Second)
}

func TestAlwaysOnNeverSleeps(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	for _, at := range []sim.Time{0, time.Second, 10 * time.Second} {
		r.eng.Schedule(at, func() {
			if !a.radio.On() {
				t.Errorf("always-on node asleep at %v", r.eng.Now())
			}
		})
	}
	r.eng.Run(11 * time.Second)
}

func TestWakeUntilOverride(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)

	r.eng.Schedule(time.Second, func() { b.WakeUntil(1500 * time.Millisecond) })
	r.eng.Schedule(1200*time.Millisecond, func() {
		if !b.radio.On() {
			t.Error("override should keep node awake at 1.2s")
		}
	})
	r.eng.Schedule(1600*time.Millisecond, func() {
		if b.radio.On() {
			t.Error("node should sleep again after override expires")
		}
	})
	r.eng.Run(2 * time.Second)
}

func TestWakeAtSchedulesFutureWake(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)

	b.WakeAt(2*time.Second, 2200*time.Millisecond)
	r.eng.Schedule(1900*time.Millisecond, func() {
		if b.radio.On() {
			t.Error("node awake before WakeAt time")
		}
	})
	r.eng.Schedule(2100*time.Millisecond, func() {
		if !b.radio.On() {
			t.Error("node not awake during WakeAt override")
		}
	})
	r.eng.Schedule(2400*time.Millisecond, func() {
		if b.radio.On() {
			t.Error("node still awake after WakeAt override")
		}
	})
	r.eng.Run(3 * time.Second)
}

func TestWakeAtCancel(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)

	tm := b.WakeAt(2*time.Second, 2500*time.Millisecond)
	r.eng.Schedule(time.Second, func() { r.eng.Cancel(tm) })
	r.eng.Schedule(2100*time.Millisecond, func() {
		if b.radio.On() {
			t.Error("canceled WakeAt still woke node")
		}
	})
	r.eng.Run(3 * time.Second)
}

func TestUnicastDuringActiveWindow(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)
	var got inbox
	b.OnReceive(got.recv)

	var ok bool
	// Send right at the start of the second active window.
	r.eng.Schedule(3*time.Second+time.Millisecond, func() {
		a.Send(1, "in-window", 60, func(res bool) { ok = res })
	})
	r.eng.Run(4 * time.Second)
	if !ok || len(got.msgs) != 1 {
		t.Errorf("in-window unicast: ok=%v msgs=%v", ok, got.msgs)
	}
}

func TestBroadcastMissedWhileAsleep(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)
	var got inbox
	b.OnReceive(got.recv)

	r.eng.Schedule(time.Second, func() { a.Broadcast("miss-me", 60) })
	r.eng.Run(2 * time.Second)
	if len(got.msgs) != 0 {
		t.Error("sleeping node received broadcast")
	}
}

func TestContendingSendersBothDeliver(t *testing.T) {
	r := newRig(3)
	cfg := DefaultConfig(3 * time.Second)
	hub := r.node(0, geom.Pt(100, 100), cfg, RoleAlwaysOn)
	a := r.node(1, geom.Pt(150, 100), cfg, RoleAlwaysOn)
	b := r.node(2, geom.Pt(100, 150), cfg, RoleAlwaysOn)
	var got inbox
	hub.OnReceive(got.recv)

	oks := 0
	done := func(ok bool) {
		if ok {
			oks++
		}
	}
	// Both senders queue at the same instant; CSMA must serialize them.
	r.eng.Schedule(0, func() {
		a.Send(0, "from-a", 200, done)
		b.Send(0, "from-b", 200, done)
	})
	r.eng.Run(time.Second)
	if oks != 2 || len(got.msgs) != 2 {
		t.Errorf("oks=%d inbox=%v", oks, got.msgs)
	}
}

func TestHiddenTerminalRecoveredByRetry(t *testing.T) {
	r := newRig(5)
	cfg := DefaultConfig(3 * time.Second)
	// a and b are out of range of each other (210 m apart) but both reach
	// the hub: the classic hidden-terminal collision, recovered by ARQ.
	hub := r.node(0, geom.Pt(105, 100), cfg, RoleAlwaysOn)
	a := r.node(1, geom.Pt(0, 100), cfg, RoleAlwaysOn)
	b := r.node(2, geom.Pt(210, 100), cfg, RoleAlwaysOn)
	var got inbox
	hub.OnReceive(got.recv)

	oks := 0
	r.eng.Schedule(0, func() {
		a.Send(0, "a", 500, func(ok bool) {
			if ok {
				oks++
			}
		})
		b.Send(0, "b", 500, func(ok bool) {
			if ok {
				oks++
			}
		})
	})
	r.eng.Run(time.Second)
	if oks != 2 {
		t.Errorf("hidden-terminal delivery oks = %d, want 2 after retries", oks)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	cfg.QueueCap = 2
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	r.node(1, geom.Pt(50, 0), cfg, RoleAlwaysOn)

	fails := 0
	r.eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			a.Send(1, i, 60, func(ok bool) {
				if !ok {
					fails++
				}
			})
		}
	})
	r.eng.Run(time.Second)
	// Queue of 2 plus one in flight: 3 accepted, 2 rejected.
	if got := a.Stats().QueueDrops; got != 2 {
		t.Errorf("QueueDrops = %d, want 2", got)
	}
	if fails != 2 {
		t.Errorf("failure callbacks = %d, want 2", fails)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	b := r.node(1, geom.Pt(50, 0), cfg, RoleDutyCycled)
	var got inbox
	b.OnReceive(got.recv)

	// Keep the receiver awake to get the data frame, but force its ACK to
	// be lost by having the receiver's ack transmission collide: we emulate
	// ACK loss by powering the *sender* region... Simpler determinism: send
	// the same payload twice; MAC seq differs so both must be delivered.
	var okFirst bool
	r.eng.Schedule(0, func() {
		b.WakeUntil(time.Second)
		a.Send(1, "p1", 60, func(ok bool) { okFirst = ok })
		a.Send(1, "p1", 60, nil)
	})
	r.eng.Run(time.Second)
	if !okFirst {
		t.Fatal("first send failed")
	}
	if len(got.msgs) != 2 {
		t.Errorf("distinct frames with same payload delivered %d times, want 2", len(got.msgs))
	}
	if d := b.Stats().Duplicates; d != 0 {
		t.Errorf("Duplicates = %d, want 0", d)
	}
}

func TestStartTwicePanics(t *testing.T) {
	r := newRig(1)
	rad := r.med.Attach(9, geom.Pt(0, 0), nil)
	m := New(r.eng, rad, DefaultConfig(3*time.Second), RoleAlwaysOn)
	m.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start should panic")
		}
	}()
	m.Start()
}

func TestSendBroadcastAddressPanics(t *testing.T) {
	r := newRig(1)
	m := r.node(0, geom.Pt(0, 0), DefaultConfig(3*time.Second), RoleAlwaysOn)
	defer func() {
		if recover() == nil {
			t.Error("Send to Broadcast should panic")
		}
	}()
	m.Send(radio.Broadcast, "x", 10, nil)
}

func TestManyBroadcastsWithinWindowAllHeard(t *testing.T) {
	// A burst of broadcasts queued at a window start must mostly fit inside
	// the 100ms active window: this is the property MQ-JIT's recruit
	// messages rely on.
	r := newRig(7)
	cfg := DefaultConfig(3 * time.Second)
	var senders []*MAC
	for i := 0; i < 10; i++ {
		senders = append(senders, r.node(radio.NodeID(i), geom.Pt(100+float64(i), 100), cfg, RoleAlwaysOn))
	}
	sleeper := r.node(99, geom.Pt(100, 150), cfg, RoleDutyCycled)
	var got inbox
	sleeper.OnReceive(got.recv)

	r.eng.Schedule(3*time.Second, func() {
		for i, s := range senders {
			s.Broadcast(i, 72)
		}
	})
	r.eng.Run(4 * time.Second)
	if len(got.msgs) < 9 {
		t.Errorf("sleeper heard %d/10 window broadcasts", len(got.msgs))
	}
}

func TestRoleString(t *testing.T) {
	if RoleAlwaysOn.String() != "always-on" || RoleDutyCycled.String() != "duty-cycled" {
		t.Error("role names wrong")
	}
	if Role(9).String() != "Role(9)" {
		t.Error("unknown role formatting wrong")
	}
}

func BenchmarkUnicastRoundTrip(b *testing.B) {
	r := newRig(1)
	cfg := DefaultConfig(3 * time.Second)
	a := r.node(0, geom.Pt(0, 0), cfg, RoleAlwaysOn)
	r.node(1, geom.Pt(50, 0), cfg, RoleAlwaysOn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.eng.Schedule(r.eng.Now(), func() { a.Send(1, i, 60, nil) })
		r.eng.Run(r.eng.Now() + 5*time.Millisecond)
	}
}
