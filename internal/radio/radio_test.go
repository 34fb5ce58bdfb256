package radio

import (
	"testing"
	"time"

	"mobiquery/internal/energy"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

func testMedium(eng *sim.Engine) *Medium {
	return NewMedium(eng, geom.Square(450), DefaultParams())
}

// collector records frames delivered to a node.
type collector struct{ frames []Frame }

func (c *collector) handle(f Frame) { c.frames = append(c.frames, f) }

func TestAirtime(t *testing.T) {
	p := DefaultParams() // 2 Mbps
	if got := p.Airtime(250); got != time.Millisecond {
		t.Errorf("Airtime(250B @ 2Mbps) = %v, want 1ms", got)
	}
	if got := p.Airtime(0); got <= 0 {
		t.Errorf("Airtime(0) = %v, want positive", got)
	}
}

func TestBasicDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var a, b collector
	ra := m.Attach(0, geom.Pt(0, 0), a.handle)
	m.Attach(1, geom.Pt(50, 0), b.handle)

	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 1, Size: 100, Payload: "hi"}) })
	eng.Run(time.Second)

	if len(b.frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(b.frames))
	}
	f := b.frames[0]
	if f.Src != 0 || f.Dst != 1 || f.Payload != "hi" {
		t.Errorf("frame = %+v", f)
	}
	if len(a.frames) != 0 {
		t.Error("sender should not receive its own frame")
	}
	if s := m.Stats(); s.Deliveries != 1 || s.Transmissions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var far collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	m.Attach(1, geom.Pt(106, 0), far.handle) // just beyond 105 m

	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: Broadcast, Size: 100}) })
	eng.Run(time.Second)
	if len(far.frames) != 0 {
		t.Error("node beyond range received frame")
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var got [3]collector
	ra := m.Attach(0, geom.Pt(100, 100), func(Frame) {})
	m.Attach(1, geom.Pt(150, 100), got[0].handle)
	m.Attach(2, geom.Pt(100, 150), got[1].handle)
	m.Attach(3, geom.Pt(100, 204), got[2].handle) // within 105

	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: Broadcast, Size: 60}) })
	eng.Run(time.Second)
	for i := range got {
		if len(got[i].frames) != 1 {
			t.Errorf("node %d got %d frames, want 1", i+1, len(got[i].frames))
		}
	}
}

func TestSleepingReceiverMissesFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), b.handle)

	eng.Schedule(0, func() {
		rb.SetOn(false)
		ra.Transmit(Frame{Dst: 1, Size: 100})
	})
	eng.Run(time.Second)
	if len(b.frames) != 0 {
		t.Error("sleeping receiver decoded a frame")
	}
	if m.Stats().MissedOff != 1 {
		t.Errorf("MissedOff = %d, want 1", m.Stats().MissedOff)
	}
}

func TestPowerOffMidReceptionCorrupts(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), b.handle)

	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 1, Size: 1000}) })
	eng.Schedule(air/2, func() { rb.SetOn(false) })
	eng.Run(time.Second)
	if len(b.frames) != 0 {
		t.Error("receiver that slept mid-frame decoded it")
	}
}

func TestPowerOnMidTransmissionMisses(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), b.handle)

	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() {
		rb.SetOn(false)
		ra.Transmit(Frame{Dst: 1, Size: 1000})
	})
	eng.Schedule(air/2, func() { rb.SetOn(true) })
	eng.Run(time.Second)
	if len(b.frames) != 0 {
		t.Error("receiver that woke mid-frame decoded it")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var mid collector
	ra := m.Attach(0, geom.Pt(0, 100), func(Frame) {})
	rb := m.Attach(1, geom.Pt(200, 100), func(Frame) {})
	m.Attach(2, geom.Pt(100, 100), mid.handle) // in range of both senders

	// Hidden terminals: senders are out of range of each other (200 m apart)
	// and transmit overlapping frames.
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 2, Size: 1000}) })
	eng.Schedule(DefaultParams().Airtime(1000)/2, func() { rb.Transmit(Frame{Dst: 2, Size: 1000}) })
	eng.Run(time.Second)
	if len(mid.frames) != 0 {
		t.Errorf("collision still delivered %d frames", len(mid.frames))
	}
	if m.Stats().Collisions != 2 {
		t.Errorf("Collisions = %d, want 2", m.Stats().Collisions)
	}
}

func TestNonOverlappingFramesBothDelivered(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var mid collector
	ra := m.Attach(0, geom.Pt(0, 100), func(Frame) {})
	rb := m.Attach(1, geom.Pt(200, 100), func(Frame) {})
	m.Attach(2, geom.Pt(100, 100), mid.handle)

	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 2, Size: 1000}) })
	eng.Schedule(air+2*DefaultParams().PropagationDelay, func() { rb.Transmit(Frame{Dst: 2, Size: 1000}) })
	eng.Run(time.Second)
	if len(mid.frames) != 2 {
		t.Errorf("got %d frames, want 2", len(mid.frames))
	}
}

func TestTransmitWhileReceivingMisses(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), b.handle)

	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 1, Size: 1000}) })
	// Receiver starts its own transmission mid-reception: half duplex loses
	// the inbound frame.
	eng.Schedule(air/2, func() { rb.Transmit(Frame{Dst: 0, Size: 10}) })
	eng.Run(time.Second)
	if len(b.frames) != 0 {
		t.Error("half-duplex node decoded while transmitting")
	}
}

func TestReceiverBusyTransmittingAtStartMisses(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), b.handle)

	eng.Schedule(0, func() { rb.Transmit(Frame{Dst: Broadcast, Size: 2000}) })
	eng.Schedule(time.Microsecond, func() { ra.Transmit(Frame{Dst: 1, Size: 10}) })
	eng.Run(time.Second)
	if len(b.frames) != 0 {
		t.Error("node transmitting at frame start decoded it")
	}
	if m.Stats().MissedBusy != 1 {
		t.Errorf("MissedBusy = %d, want 1", m.Stats().MissedBusy)
	}
}

func TestCarrierSense(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), func(Frame) {})
	rc := m.Attach(2, geom.Pt(300, 0), func(Frame) {})

	var during, after, farDuring bool
	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: Broadcast, Size: 1000}) })
	eng.Schedule(air/2, func() {
		during = rb.CarrierSense()
		farDuring = rc.CarrierSense()
		if !ra.CarrierSense() {
			t.Error("sender should sense its own transmission")
		}
	})
	eng.Schedule(air*2, func() { after = rb.CarrierSense() })
	eng.Run(time.Second)
	if !during {
		t.Error("in-range node did not sense ongoing transmission")
	}
	if farDuring {
		t.Error("out-of-range node sensed transmission")
	}
	if after {
		t.Error("carrier sensed after transmission ended")
	}
}

func TestCarrierSenseWhileOff(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), func(Frame) {})
	eng.Schedule(0, func() {
		rb.SetOn(false)
		ra.Transmit(Frame{Dst: Broadcast, Size: 1000})
	})
	eng.Schedule(time.Microsecond*10, func() {
		if rb.CarrierSense() {
			t.Error("powered-off radio sensed carrier")
		}
	})
	eng.Run(time.Second)
}

func TestMoveChangesConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var b collector
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(300, 0), b.handle)

	if m.InRange(0, 1) {
		t.Error("nodes 300m apart reported in range")
	}
	eng.Schedule(0, func() {
		rb.Move(geom.Pt(60, 0))
		ra.Transmit(Frame{Dst: 1, Size: 100})
	})
	eng.Run(time.Second)
	if !m.InRange(0, 1) {
		t.Error("nodes 60m apart reported out of range")
	}
	if len(b.frames) != 1 {
		t.Errorf("moved node got %d frames, want 1", len(b.frames))
	}
}

func TestNodesWithin(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	m.Attach(0, geom.Pt(100, 100), func(Frame) {})
	m.Attach(1, geom.Pt(120, 100), func(Frame) {})
	m.Attach(2, geom.Pt(400, 400), func(Frame) {})
	ids := m.NodesWithin(nil, geom.Pt(110, 100), 30)
	if len(ids) != 2 {
		t.Errorf("NodesWithin = %v, want 2 nodes", ids)
	}
}

func TestEnergyMetering(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	ra := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	rb := m.Attach(1, geom.Pt(50, 0), func(Frame) {})
	ma := energy.NewMeter(energy.Cabletron80211(), eng.Now, energy.ModeIdle)
	mb := energy.NewMeter(energy.Cabletron80211(), eng.Now, energy.ModeIdle)
	ra.SetMeter(ma)
	rb.SetMeter(mb)

	air := DefaultParams().Airtime(1000) // 4 ms at 2 Mbps
	eng.Schedule(0, func() { ra.Transmit(Frame{Dst: 1, Size: 1000}) })
	eng.Run(10 * time.Millisecond)

	if got := ma.ModeTime(energy.ModeTx); got != air {
		t.Errorf("sender tx time = %v, want %v", got, air)
	}
	wantRx := air + DefaultParams().PropagationDelay
	if got := mb.ModeTime(energy.ModeRx); got != wantRx {
		t.Errorf("receiver rx time = %v, want %v", got, wantRx)
	}
	if got := mb.ModeTime(energy.ModeIdle); got != 10*time.Millisecond-wantRx {
		t.Errorf("receiver idle time = %v", got)
	}
}

func TestSleepEnergyMetering(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	r := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	mt := energy.NewMeter(energy.Cabletron80211(), eng.Now, energy.ModeIdle)
	r.SetMeter(mt)
	eng.Schedule(time.Second, func() { r.SetOn(false) })
	eng.Schedule(3*time.Second, func() { r.SetOn(true) })
	eng.Run(4 * time.Second)
	if got := mt.ModeTime(energy.ModeSleep); got != 2*time.Second {
		t.Errorf("sleep time = %v, want 2s", got)
	}
	if got := mt.ModeTime(energy.ModeIdle); got != 2*time.Second {
		t.Errorf("idle time = %v, want 2s", got)
	}
}

func TestTransmitWhileOffPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	r := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	eng.Schedule(0, func() {
		r.SetOn(false)
		defer func() {
			if recover() == nil {
				t.Error("Transmit while off should panic")
			}
		}()
		r.Transmit(Frame{Dst: Broadcast, Size: 10})
	})
	eng.Run(time.Second)
}

func TestDoubleTransmitPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	r := m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	eng.Schedule(0, func() {
		r.Transmit(Frame{Dst: Broadcast, Size: 1000})
		defer func() {
			if recover() == nil {
				t.Error("double Transmit should panic")
			}
		}()
		r.Transmit(Frame{Dst: Broadcast, Size: 1000})
	})
	eng.Run(time.Second)
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	m.Attach(0, geom.Pt(0, 0), func(Frame) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach should panic")
		}
	}()
	m.Attach(0, geom.Pt(1, 1), func(Frame) {})
}

func TestThreeWayCollision(t *testing.T) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	var mid collector
	r1 := m.Attach(1, geom.Pt(0, 100), func(Frame) {})
	r2 := m.Attach(2, geom.Pt(200, 100), func(Frame) {})
	r3 := m.Attach(3, geom.Pt(100, 200), func(Frame) {})
	m.Attach(0, geom.Pt(100, 100), mid.handle)

	air := DefaultParams().Airtime(1000)
	eng.Schedule(0, func() { r1.Transmit(Frame{Dst: 0, Size: 1000}) })
	eng.Schedule(air/4, func() { r2.Transmit(Frame{Dst: 0, Size: 1000}) })
	eng.Schedule(air/2, func() { r3.Transmit(Frame{Dst: 0, Size: 1000}) })
	eng.Run(time.Second)
	if len(mid.frames) != 0 {
		t.Errorf("three-way collision delivered %d frames", len(mid.frames))
	}
}

func BenchmarkTransmitBroadcast(b *testing.B) {
	eng := sim.NewEngine(1)
	m := testMedium(eng)
	rng := eng.RNG("bench")
	region := geom.Square(450)
	var src *Radio
	for i := 0; i < 200; i++ {
		r := m.Attach(NodeID(i), region.UniformPoint(rng), func(Frame) {})
		if i == 0 {
			src = r
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(eng.Now(), func() { src.Transmit(Frame{Dst: Broadcast, Size: 60}) })
		eng.Run(eng.Now() + time.Millisecond)
	}
}
