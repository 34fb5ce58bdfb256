// Package mac implements the link layer of the MobiQuery simulator: a
// CSMA/CA medium access control with unicast acknowledgements and retries,
// plus an IEEE 802.11 PSM-style power-saving mode.
//
// Power saving follows the model of the paper's evaluation (Section 6.1):
// all duty-cycled nodes share a synchronized schedule with an active window
// (100 ms) at the start of every sleep period (3-15 s), giving duty cycles
// of 3.3 % down to 0.67 %. Backbone nodes selected by the coverage protocol
// run with Role RoleAlwaysOn and never sleep. Upper layers can override the
// schedule with WakeUntil/WakeAt, which is exactly the hook MobiQuery's
// prefetching uses to wake nodes "just in time".
package mac

import (
	"fmt"
	"math/rand"
	"time"

	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// Role describes a node's power management class.
type Role int

const (
	// RoleAlwaysOn nodes (the CCP backbone and the user's proxy) keep their
	// radio powered for the whole run.
	RoleAlwaysOn Role = iota + 1
	// RoleDutyCycled nodes sleep except during the common active window and
	// explicit wake overrides.
	RoleDutyCycled
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleAlwaysOn:
		return "always-on"
	case RoleDutyCycled:
		return "duty-cycled"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config holds link-layer parameters. All duty-cycled nodes share the same
// ActiveWindow and SleepPeriod (synchronized clocks, per the paper's
// assumptions).
type Config struct {
	// ActiveWindow is how long duty-cycled nodes stay awake at the start of
	// each sleep period (paper: 100 ms).
	ActiveWindow time.Duration
	// SleepPeriod is the full schedule period; the duty cycle is
	// ActiveWindow/SleepPeriod (paper: 3 s to 15 s).
	SleepPeriod time.Duration
	// QueueCap bounds the transmit queue; excess frames are dropped.
	QueueCap int
}

// 802.11-flavoured CSMA/CA parameters.
const (
	slotTime = 20 * time.Microsecond
	sifs     = 10 * time.Microsecond
	difs     = 50 * time.Microsecond
	cwMin    = 32   // initial contention window, in slots
	cwMax    = 1024 // maximum contention window, in slots
	// retryLimit is the number of retransmissions after the first attempt
	// of a unicast frame before it is dropped.
	retryLimit = 5
	// ackSize is the on-air size of an acknowledgement frame in bytes.
	ackSize = 14
	// headerSize is the MAC framing overhead added to every payload.
	headerSize = 12
)

// DefaultConfig returns the paper's 100 ms active window with the given
// sleep period and a 256-frame transmit queue.
func DefaultConfig(sleepPeriod time.Duration) Config {
	return Config{
		ActiveWindow: 100 * time.Millisecond,
		SleepPeriod:  sleepPeriod,
		QueueCap:     256,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ActiveWindow <= 0:
		return fmt.Errorf("mac: ActiveWindow %v must be positive", c.ActiveWindow)
	case c.SleepPeriod <= c.ActiveWindow:
		return fmt.Errorf("mac: SleepPeriod %v must exceed ActiveWindow %v", c.SleepPeriod, c.ActiveWindow)
	case c.QueueCap < 1:
		return fmt.Errorf("mac: QueueCap must be at least 1")
	}
	return nil
}

// InActiveWindow reports whether duty-cycled nodes are scheduled awake at t.
func (c Config) InActiveWindow(t sim.Time) bool {
	return t%c.SleepPeriod < c.ActiveWindow
}

// WindowStart returns the start of the schedule period containing t.
func (c Config) WindowStart(t sim.Time) sim.Time {
	return t - t%c.SleepPeriod
}

// NextWindowStart returns the first schedule-period boundary strictly
// after t.
func (c Config) NextWindowStart(t sim.Time) sim.Time {
	return c.WindowStart(t) + c.SleepPeriod
}

// BroadcastTime returns the earliest time at or after t that is suitable
// for broadcasting to duty-cycled listeners: within an active window with at
// least a quarter of the window remaining.
func (c Config) BroadcastTime(t sim.Time) sim.Time {
	if t%c.SleepPeriod < c.ActiveWindow*3/4 {
		return t
	}
	return c.NextWindowStart(t)
}

// Stats aggregates per-node link-layer counters.
type Stats struct {
	UnicastSent    uint64 // data frames put on the air (including retries)
	BroadcastSent  uint64
	AcksSent       uint64
	Delivered      uint64 // payloads handed to the upper layer
	Duplicates     uint64 // retransmissions filtered by the dedup cache
	AckTimeouts    uint64
	Drops          uint64 // unicasts abandoned after retryLimit
	QueueDrops     uint64 // frames rejected by a full queue
	BusyDeferrals  uint64 // carrier-sense backoffs
	SleepDeferrals uint64 // sleep postponed to flush the queue
}

// frameKind discriminates MAC frame types.
type frameKind uint8

const (
	kindData frameKind = iota + 1
	kindAck
)

// header is the MAC framing around upper-layer payloads.
type header struct {
	Kind    frameKind
	Seq     uint16
	Payload any
}

// outgoing is a queued transmission.
type outgoing struct {
	dst     radio.NodeID
	payload any
	size    int // on-air size including MAC header
	seq     uint16
	retries int
	done    func(ok bool)
}

// MAC is a single node's link layer. Construct with New; the zero value is
// unusable. All methods must be called from within the simulation loop.
type MAC struct {
	eng   *sim.Engine
	radio *radio.Radio
	cfg   Config
	role  Role
	rng   *rand.Rand

	recv func(src radio.NodeID, payload any)

	queue    []*outgoing
	current  *outgoing
	inflight bool
	cw       int

	ackTimer   *sim.Timer
	sleepTimer *sim.Timer

	overrideUntil sim.Time
	started       bool
	seq           uint16
	lastSeq       map[radio.NodeID]uint16
	stats         Stats
}

// New attaches a MAC to a radio. The radio's frame handler is taken over by
// the MAC. Call Start before running the simulation.
func New(eng *sim.Engine, r *radio.Radio, cfg Config, role Role) *MAC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &MAC{
		eng:     eng,
		radio:   r,
		cfg:     cfg,
		role:    role,
		rng:     eng.RNG("mac"),
		cw:      cwMin,
		lastSeq: make(map[radio.NodeID]uint16),
	}
	return m
}

// Radio returns the underlying radio.
func (m *MAC) Radio() *radio.Radio { return m.radio }

// Role returns the node's power management class.
func (m *MAC) Role() Role { return m.role }

// Stats returns a snapshot of the node's link-layer counters.
func (m *MAC) Stats() Stats { return m.stats }

// OnReceive registers the upper-layer delivery callback.
func (m *MAC) OnReceive(fn func(src radio.NodeID, payload any)) { m.recv = fn }

// Start arms the duty-cycle schedule. It must be called exactly once, at
// simulation time zero, after construction.
func (m *MAC) Start() {
	if m.started {
		panic("mac: Start called twice")
	}
	m.started = true
	m.radio.OnFrame(m.onFrame)
	if m.role == RoleAlwaysOn {
		m.radio.SetOn(true)
		return
	}
	m.windowTick()
}

// windowTick fires at each schedule-period boundary for duty-cycled nodes.
func (m *MAC) windowTick() {
	m.radio.SetOn(true)
	m.kick()
	m.scheduleSleepCheck(m.eng.Now() + m.cfg.ActiveWindow)
	m.eng.After(m.cfg.SleepPeriod, m.windowTick)
}

// scheduleSleepCheck arranges a single pending maybeSleep at time at,
// replacing any earlier one that would fire sooner than needed.
func (m *MAC) scheduleSleepCheck(at sim.Time) {
	if m.sleepTimer != nil && !m.sleepTimer.Canceled() {
		if m.sleepTimer.At() >= at {
			return
		}
		m.eng.Cancel(m.sleepTimer)
	}
	m.sleepTimer = m.eng.Schedule(at, m.maybeSleep)
}

// maybeSleep powers the radio down if no schedule window, override, or
// pending traffic keeps the node awake.
func (m *MAC) maybeSleep() {
	if m.role == RoleAlwaysOn {
		return
	}
	now := m.eng.Now()
	if m.cfg.InActiveWindow(now) {
		m.scheduleSleepCheck(m.cfg.WindowStart(now) + m.cfg.ActiveWindow)
		return
	}
	if now < m.overrideUntil {
		m.scheduleSleepCheck(m.overrideUntil)
		return
	}
	if m.radio.Transmitting() || m.current != nil || len(m.queue) > 0 {
		// Flush in-flight traffic before sleeping; a real node drains its
		// transmit FIFO first.
		m.stats.SleepDeferrals++
		m.scheduleSleepCheck(now + time.Millisecond)
		return
	}
	m.radio.SetOn(false)
}

// WakeUntil powers the node on immediately (if needed) and keeps it awake at
// least until the given time.
func (m *MAC) WakeUntil(until sim.Time) {
	if m.role == RoleAlwaysOn {
		return
	}
	if until > m.overrideUntil {
		m.overrideUntil = until
	}
	if !m.radio.On() {
		m.radio.SetOn(true)
		m.kick()
	}
	m.scheduleSleepCheck(m.overrideUntil)
}

// WakeAt schedules a wake override for the future: the node powers on at
// time at and stays awake until the given time. The returned timer may be
// canceled to revoke the wake-up (MobiQuery's cancel messages use this).
func (m *MAC) WakeAt(at, until sim.Time) *sim.Timer {
	return m.eng.Schedule(at, func() { m.WakeUntil(until) })
}

// Send queues a unicast payload for dst with link-layer acknowledgement and
// retries. done, if non-nil, is invoked with the delivery outcome: true once
// the ACK arrives, false when the frame is dropped after retryLimit
// retransmissions or a queue overflow.
func (m *MAC) Send(dst radio.NodeID, payload any, size int, done func(ok bool)) {
	if dst == radio.Broadcast {
		panic("mac: Send requires a unicast destination; use Broadcast")
	}
	m.enqueue(&outgoing{dst: dst, payload: payload, size: size + headerSize, done: done})
}

// Broadcast queues a one-hop broadcast. Broadcasts are unacknowledged and
// delivered only to neighbours whose radios are on for the whole frame.
func (m *MAC) Broadcast(payload any, size int) {
	m.enqueue(&outgoing{dst: radio.Broadcast, payload: payload, size: size + headerSize})
}

func (m *MAC) enqueue(o *outgoing) {
	if len(m.queue) >= m.cfg.QueueCap {
		m.stats.QueueDrops++
		if o.done != nil {
			done := o.done
			m.eng.After(0, func() { done(false) })
		}
		return
	}
	m.seq++
	o.seq = m.seq
	m.queue = append(m.queue, o)
	m.kick()
}

// kick starts servicing the queue if the MAC is idle.
func (m *MAC) kick() {
	if m.current != nil || len(m.queue) == 0 || !m.radio.On() {
		return
	}
	m.current = m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.cw = cwMin
	m.backoff()
}

// backoff schedules the next transmission attempt after DIFS plus a random
// number of slots drawn from the current contention window.
func (m *MAC) backoff() {
	delay := difs + time.Duration(m.rng.Intn(m.cw))*slotTime
	m.eng.After(delay, m.attempt)
}

// widen doubles the contention window up to cwMax.
func (m *MAC) widen() {
	m.cw *= 2
	if m.cw > cwMax {
		m.cw = cwMax
	}
}

// attempt transmits the current frame if the channel is clear.
func (m *MAC) attempt() {
	if m.current == nil || m.inflight {
		return
	}
	if !m.radio.On() {
		// Radio slept mid-backoff; resume on next wake via kick.
		return
	}
	if m.radio.Transmitting() {
		// An ACK transmission is in progress; retry shortly after.
		m.eng.After(sifs, m.attempt)
		return
	}
	if m.radio.CarrierSense() {
		m.stats.BusyDeferrals++
		m.widen()
		m.backoff()
		return
	}
	o := m.current
	hdr := header{Kind: kindData, Seq: o.seq, Payload: o.payload}
	m.inflight = true
	air := m.radio.Transmit(radio.Frame{Dst: o.dst, Size: o.size, Payload: hdr})
	if o.dst == radio.Broadcast {
		m.stats.BroadcastSent++
		m.eng.After(air, func() {
			if m.current == o {
				m.current = nil
				m.inflight = false
				m.kick()
			}
		})
		return
	}
	m.stats.UnicastSent++
	timeout := air + sifs + m.radio.Airtime(ackSize) +
		2*m.radio.PropagationDelay() + 4*slotTime
	m.ackTimer = m.eng.After(timeout, func() { m.ackTimeout(o) })
}

// ackTimeout handles a missing acknowledgement for frame o.
func (m *MAC) ackTimeout(o *outgoing) {
	if m.current != o {
		return
	}
	m.stats.AckTimeouts++
	m.inflight = false
	if o.retries >= retryLimit {
		m.stats.Drops++
		m.current = nil
		if o.done != nil {
			o.done(false)
		}
		m.kick()
		return
	}
	o.retries++
	m.widen()
	m.backoff()
}

// onFrame is the radio delivery handler.
func (m *MAC) onFrame(f radio.Frame) {
	hdr, ok := f.Payload.(header)
	if !ok {
		return
	}
	switch hdr.Kind {
	case kindAck:
		if f.Dst != m.radio.ID() {
			return
		}
		o := m.current
		if o != nil && o.dst == f.Src && hdr.Seq == o.seq {
			m.eng.Cancel(m.ackTimer)
			m.current = nil
			m.inflight = false
			if o.done != nil {
				o.done(true)
			}
			m.kick()
		}
	case kindData:
		if f.Dst == radio.Broadcast {
			m.deliver(f.Src, hdr.Payload)
			return
		}
		if f.Dst != m.radio.ID() {
			return
		}
		m.sendAck(f.Src, hdr.Seq)
		if last, seen := m.lastSeq[f.Src]; seen && last == hdr.Seq {
			m.stats.Duplicates++
			return
		}
		m.lastSeq[f.Src] = hdr.Seq
		m.deliver(f.Src, hdr.Payload)
	}
}

// sendAck transmits an acknowledgement after SIFS, bypassing carrier sense
// (SIFS priority, as in 802.11).
func (m *MAC) sendAck(dst radio.NodeID, seq uint16) {
	m.eng.After(sifs, func() {
		if !m.radio.On() || m.radio.Transmitting() {
			return // sender will retry
		}
		m.stats.AcksSent++
		m.radio.Transmit(radio.Frame{
			Dst:     dst,
			Size:    ackSize,
			Payload: header{Kind: kindAck, Seq: seq},
		})
	})
}

func (m *MAC) deliver(src radio.NodeID, payload any) {
	m.stats.Delivered++
	if m.recv != nil {
		m.recv(src, payload)
	}
}
