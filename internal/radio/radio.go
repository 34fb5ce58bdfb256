// Package radio models the shared wireless medium of the sensor network.
//
// The model is the classic unit-disk + collision abstraction used by ns-2
// era WSN studies: a frame transmitted by a node occupies the channel for
// size*8/bandwidth seconds and is heard by every powered-on node within the
// communication range. If two receptions overlap at a receiver, both are
// corrupted (no capture effect). A node that is transmitting, or whose radio
// is off for any part of a reception, misses the frame.
//
// The medium also provides physical carrier sense, which the MAC layer uses
// for CSMA, and drives per-node energy metering (tx/rx/idle/sleep).
package radio

import (
	"fmt"
	"time"

	"mobiquery/internal/energy"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// NodeID identifies a node attached to the medium. IDs are small dense
// non-negative integers assigned by the caller.
type NodeID int32

// Broadcast is the destination address for one-hop broadcast frames.
const Broadcast NodeID = -1

// Frame is a unit of transmission on the medium. Payload is opaque to the
// radio; Size (bytes) determines airtime. The MAC layer filters destination
// addresses; the radio delivers every decodable frame to the handler.
type Frame struct {
	Src     NodeID
	Dst     NodeID
	Size    int
	Payload any
}

// Params configures the physical layer.
type Params struct {
	// Range is the communication radius in meters (paper: 105 m).
	Range float64
	// Bandwidth is the link rate in bits per second (paper: 2 Mbps).
	Bandwidth float64
	// PropagationDelay is the fixed per-frame propagation latency.
	PropagationDelay time.Duration
}

// DefaultParams returns the physical-layer settings from the paper's
// evaluation (Section 6.1).
func DefaultParams() Params {
	return Params{Range: 105, Bandwidth: 2e6, PropagationDelay: time.Microsecond}
}

// Airtime returns how long a frame of size bytes occupies the channel.
func (p Params) Airtime(size int) time.Duration {
	if size <= 0 {
		size = 1
	}
	return time.Duration(float64(size*8) / p.Bandwidth * float64(time.Second))
}

// Stats aggregates medium-level counters across a run.
type Stats struct {
	Transmissions uint64 // frames put on the air
	Deliveries    uint64 // successful frame receptions
	Collisions    uint64 // receptions corrupted by overlap
	MissedOff     uint64 // receptions missed because the radio was off
	MissedBusy    uint64 // receptions missed because the receiver was transmitting
}

// Medium is the shared channel connecting all radios. Construct with
// NewMedium; the zero value is unusable.
type Medium struct {
	eng    *sim.Engine
	params Params
	grid   *geom.ShardedGrid
	radios map[NodeID]*Radio
	active []*transmission
	stats  Stats
}

// NewMedium creates a medium over the given deployment region.
func NewMedium(eng *sim.Engine, region geom.Rect, params Params) *Medium {
	if params.Range <= 0 || params.Bandwidth <= 0 {
		panic("radio: Range and Bandwidth must be positive")
	}
	return &Medium{
		eng:    eng,
		params: params,
		grid:   geom.NewShardedGrid(region, params.Range, 1),
		radios: make(map[NodeID]*Radio),
	}
}

// Params returns the physical-layer configuration.
func (m *Medium) Params() Params { return m.params }

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Attach creates a radio for node id at position pos. The handler is invoked
// for every successfully decoded frame; it may be nil and set later with
// OnFrame (frames decoded before then are dropped). Radios start powered on.
// Attaching a duplicate id panics.
func (m *Medium) Attach(id NodeID, pos geom.Point, handler func(Frame)) *Radio {
	if id < 0 {
		panic(fmt.Sprintf("radio: invalid node id %d", id))
	}
	if _, dup := m.radios[id]; dup {
		panic(fmt.Sprintf("radio: duplicate node id %d", id))
	}
	r := &Radio{id: id, m: m, pos: pos, on: true, handler: handler}
	m.radios[id] = r
	m.grid.Insert(int32(id), pos)
	return r
}

// InRange reports whether nodes a and b are currently within communication
// range of each other.
func (m *Medium) InRange(a, b NodeID) bool {
	ra, rb := m.radios[a], m.radios[b]
	if ra == nil || rb == nil {
		return false
	}
	return ra.pos.Within(rb.pos, m.params.Range)
}

// NodesWithin appends the ids of all attached nodes within radius r of p,
// in the grid's canonical scan order.
func (m *Medium) NodesWithin(dst []NodeID, p geom.Point, r float64) []NodeID {
	m.grid.VisitWithin(p, r, func(id int32, _ geom.Point) { dst = append(dst, NodeID(id)) })
	return dst
}

// transmission is one in-flight frame.
type transmission struct {
	src        *Radio
	frame      Frame
	receptions []*reception
	done       bool
}

// reception tracks one (transmission, receiver) pair.
type reception struct {
	rx        *Radio
	corrupted bool
}

// Radio is a node's attachment point to the medium. All methods must be
// called from within the simulation loop.
type Radio struct {
	id           NodeID
	m            *Medium
	pos          geom.Point
	on           bool
	transmitting bool
	incoming     []*reception
	handler      func(Frame)
	meter        *energy.Meter
}

// ID returns the node id of this radio.
func (r *Radio) ID() NodeID { return r.id }

// OnFrame replaces the frame delivery handler. The MAC layer installs
// itself here after attachment.
func (r *Radio) OnFrame(fn func(Frame)) { r.handler = fn }

// Airtime returns how long a frame of size bytes occupies the channel on
// this radio's medium.
func (r *Radio) Airtime(size int) time.Duration { return r.m.params.Airtime(size) }

// PropagationDelay returns the medium's fixed per-frame propagation latency.
func (r *Radio) PropagationDelay() time.Duration { return r.m.params.PropagationDelay }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Point { return r.pos }

// On reports whether the radio is powered.
func (r *Radio) On() bool { return r.on }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.transmitting }

// SetMeter attaches an energy meter that will track this radio's mode.
func (r *Radio) SetMeter(mt *energy.Meter) {
	r.meter = mt
	r.updateMode()
}

// Meter returns the attached energy meter, or nil.
func (r *Radio) Meter() *energy.Meter { return r.meter }

// Move relocates the radio (used for the mobile proxy).
func (r *Radio) Move(p geom.Point) {
	r.pos = p
	r.m.grid.Move(int32(r.id), p)
}

// SetOn powers the radio on or off. Turning the radio off corrupts any
// in-progress receptions (the tail of the frame is lost). Turning it off
// mid-transmission is a protocol error and panics.
func (r *Radio) SetOn(on bool) {
	if r.on == on {
		return
	}
	if !on && r.transmitting {
		panic(fmt.Sprintf("radio: node %d powered off while transmitting", r.id))
	}
	r.on = on
	if !on {
		for _, rec := range r.incoming {
			rec.corrupted = true
		}
	}
	r.updateMode()
}

// CarrierSense reports whether the node detects energy on the channel: any
// in-flight transmission from a node within range, or its own transmission.
// A powered-off radio senses nothing.
func (r *Radio) CarrierSense() bool {
	if !r.on {
		return false
	}
	if r.transmitting {
		return true
	}
	for _, tx := range r.m.active {
		if tx.src.pos.Within(r.pos, r.m.params.Range) {
			return true
		}
	}
	return false
}

// Transmit puts a frame on the air and returns its airtime. The caller (the
// MAC) must ensure the radio is on and not already transmitting; violating
// either panics, as it indicates a MAC bug rather than a recoverable
// condition. Delivery outcomes are resolved when the frame's airtime ends.
func (r *Radio) Transmit(f Frame) time.Duration {
	if !r.on {
		panic(fmt.Sprintf("radio: node %d transmitted while off", r.id))
	}
	if r.transmitting {
		panic(fmt.Sprintf("radio: node %d transmitted while already transmitting", r.id))
	}
	f.Src = r.id
	m := r.m
	air := m.params.Airtime(f.Size)
	r.transmitting = true
	// Transmitting corrupts anything the node was receiving (half-duplex).
	for _, rec := range r.incoming {
		rec.corrupted = true
	}
	r.updateMode()

	tx := &transmission{src: r, frame: f}
	m.stats.Transmissions++
	// Receptions open in the grid's canonical scan order; nothing here
	// moves a radio, so the scan sees one grid state throughout.
	m.grid.VisitWithin(r.pos, m.params.Range, func(rid int32, _ geom.Point) {
		if NodeID(rid) == r.id {
			return
		}
		rx := m.radios[NodeID(rid)]
		if !rx.on {
			m.stats.MissedOff++
			return
		}
		if rx.transmitting {
			m.stats.MissedBusy++
			return
		}
		rec := &reception{rx: rx}
		if len(rx.incoming) > 0 {
			// Overlapping signals at this receiver: everything is lost.
			for _, other := range rx.incoming {
				if !other.corrupted {
					other.corrupted = true
					m.stats.Collisions++
				}
			}
			rec.corrupted = true
			m.stats.Collisions++
		}
		rx.incoming = append(rx.incoming, rec)
		rx.updateMode()
		tx.receptions = append(tx.receptions, rec)
	})
	m.active = append(m.active, tx)
	// The sender is released when the frame leaves the air; receivers
	// resolve one propagation delay later.
	m.eng.After(air, func() {
		tx.src.transmitting = false
		tx.src.updateMode()
	})
	m.eng.After(air+m.params.PropagationDelay, func() { m.finish(tx) })
	return air
}

// finish resolves a transmission: completes receptions and delivers
// uncorrupted frames.
func (m *Medium) finish(tx *transmission) {
	if tx.done {
		return
	}
	tx.done = true
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}

	// First detach all receptions so handlers observe a consistent medium,
	// then deliver. Delivery order follows reception creation order, which
	// is deterministic.
	deliver := make([]*Radio, 0, len(tx.receptions))
	for _, rec := range tx.receptions {
		rx := rec.rx
		for i, cur := range rx.incoming {
			if cur == rec {
				rx.incoming = append(rx.incoming[:i], rx.incoming[i+1:]...)
				break
			}
		}
		if !rx.on {
			rec.corrupted = true
		}
		rx.updateMode()
		if !rec.corrupted {
			deliver = append(deliver, rx)
		}
	}
	for _, rx := range deliver {
		m.stats.Deliveries++
		if rx.handler != nil {
			rx.handler(tx.frame)
		}
	}
}

// updateMode reflects the radio's state into its energy meter.
func (r *Radio) updateMode() {
	if r.meter == nil {
		return
	}
	switch {
	case !r.on:
		r.meter.SetMode(energy.ModeSleep)
	case r.transmitting:
		r.meter.SetMode(energy.ModeTx)
	case len(r.incoming) > 0:
		r.meter.SetMode(energy.ModeRx)
	default:
		r.meter.SetMode(energy.ModeIdle)
	}
}
