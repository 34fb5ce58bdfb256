// Package energy provides radio power modelling and per-node energy
// accounting for the MobiQuery simulator.
//
// The model follows Section 6.4 of the paper, which uses the measured power
// draw of a Cabletron 802.11 card: transmitting 1400 mW, receiving 1000 mW,
// idle 830 mW, sleeping 130 mW. A Meter integrates power over the time each
// node spends in each radio state, giving exact energy figures for the
// Figure 8 reproduction.
package energy

import (
	"fmt"
	"time"

	"mobiquery/internal/sim"
)

// Mode is a radio operating state.
type Mode int

// Radio modes, from cheapest to most expensive.
const (
	ModeSleep Mode = iota + 1
	ModeIdle
	ModeRx
	ModeTx
	numModes
)

// String returns the lower-case mode name.
func (m Mode) String() string {
	switch m {
	case ModeSleep:
		return "sleep"
	case ModeIdle:
		return "idle"
	case ModeRx:
		return "rx"
	case ModeTx:
		return "tx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Profile gives the power draw, in watts, of each radio mode.
type Profile struct {
	Tx, Rx, Idle, Sleep float64
}

// Cabletron80211 is the power profile used in the paper's evaluation
// (Section 6.4): 1400/1000/830/130 mW for tx/rx/idle/sleep.
func Cabletron80211() Profile {
	return Profile{Tx: 1.400, Rx: 1.000, Idle: 0.830, Sleep: 0.130}
}

// Power returns the draw of mode m in watts.
func (p Profile) Power(m Mode) float64 {
	switch m {
	case ModeSleep:
		return p.Sleep
	case ModeIdle:
		return p.Idle
	case ModeRx:
		return p.Rx
	case ModeTx:
		return p.Tx
	default:
		return 0
	}
}

// Meter integrates a single node's energy use across radio mode changes.
// The zero value is not usable; construct with NewMeter.
type Meter struct {
	profile  Profile
	clock    func() sim.Time
	mode     Mode
	since    sim.Time
	duration [numModes]time.Duration
}

// NewMeter returns a meter that reads virtual time from clock. The node
// starts in mode initial at the current clock reading.
func NewMeter(profile Profile, clock func() sim.Time, initial Mode) *Meter {
	return &Meter{
		profile: profile,
		clock:   clock,
		mode:    initial,
		since:   clock(),
	}
}

// SetMode switches the radio to mode, attributing the elapsed interval to
// the previous mode. Switching to the current mode is a no-op.
func (m *Meter) SetMode(mode Mode) {
	if mode == m.mode {
		return
	}
	m.accumulate()
	m.mode = mode
}

func (m *Meter) accumulate() {
	now := m.clock()
	m.duration[m.mode] += now - m.since
	m.since = now
}

// ModeTime returns the total time spent in mode, including the in-progress
// interval.
func (m *Meter) ModeTime(mode Mode) time.Duration {
	d := m.duration[mode]
	if mode == m.mode {
		d += m.clock() - m.since
	}
	return d
}

// TotalTime returns the sum of time across all modes; by construction it
// equals the elapsed virtual time since the meter was created.
func (m *Meter) TotalTime() time.Duration {
	var total time.Duration
	for mode := ModeSleep; mode < numModes; mode++ {
		total += m.ModeTime(mode)
	}
	return total
}

// Energy returns the total energy consumed so far, in joules.
func (m *Meter) Energy() float64 {
	var j float64
	for mode := ModeSleep; mode < numModes; mode++ {
		j += m.profile.Power(mode) * m.ModeTime(mode).Seconds()
	}
	return j
}

// AveragePower returns the mean power draw in watts since the meter was
// created. It returns zero before any time has elapsed.
func (m *Meter) AveragePower() float64 {
	total := m.TotalTime().Seconds()
	if total <= 0 {
		return 0
	}
	return m.Energy() / total
}

// Report is an immutable snapshot of a meter.
type Report struct {
	Energy       float64 // joules
	AveragePower float64 // watts
	Sleep        time.Duration
	Idle         time.Duration
	Rx           time.Duration
	Tx           time.Duration
}

// Snapshot captures the meter's current totals.
func (m *Meter) Snapshot() Report {
	return Report{
		Energy:       m.Energy(),
		AveragePower: m.AveragePower(),
		Sleep:        m.ModeTime(ModeSleep),
		Idle:         m.ModeTime(ModeIdle),
		Rx:           m.ModeTime(ModeRx),
		Tx:           m.ModeTime(ModeTx),
	}
}

// Aggregate averages a set of reports; it is used to compute the paper's
// "average power consumption per sleeping node" metric. Aggregating an
// empty slice returns a zero Report.
func Aggregate(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	var out Report
	for _, r := range reports {
		out.Energy += r.Energy
		out.AveragePower += r.AveragePower
		out.Sleep += r.Sleep
		out.Idle += r.Idle
		out.Rx += r.Rx
		out.Tx += r.Tx
	}
	n := len(reports)
	out.Energy /= float64(n)
	out.AveragePower /= float64(n)
	out.Sleep /= time.Duration(n)
	out.Idle /= time.Duration(n)
	out.Rx /= time.Duration(n)
	out.Tx /= time.Duration(n)
	return out
}
