package core

import (
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// Protocol ports.
const (
	portPrefetch    netstack.Port = 10 // geo-routed prefetch messages
	portSetup       netstack.Port = 11 // query-tree setup floods
	portRecruit     netstack.Port = 12 // active-window leaf recruitment
	portReport      netstack.Port = 13 // data reports up the tree
	portResult      netstack.Port = 14 // final result to the proxy
	portResultRelay netstack.Port = 15 // geo relay of results toward the user
	portCancel      netstack.Port = 16 // prefetch cancellation chase
)

// On-air payload sizes in bytes. The prefetch size matches the paper's
// Section 5.2 example (60 bytes).
const (
	prefetchSize    = 60
	setupSize       = 40
	recruitBaseSize = 24
	recruitPerEntry = 12
	reportSize      = 36
	resultSize      = 36
	cancelSize      = 16
)

// prefetchMsg forewarns the collector near pickup point K. It carries the
// query spec and the motion profile, as in the paper's design.
//
// FromK is the first period this profile version is responsible for; state
// from older versions remains valid for earlier periods (the old profile is
// still in effect before the motion change it predicts). UpToK, when
// non-zero, caps the chain: a superseded chain keeps serving periods below
// the new version's FromK and stops there.
type prefetchMsg struct {
	QueryID uint32
	Version int
	K       int
	FromK   int
	UpToK   int // exclusive; 0 = query lifetime
	Scheme  Scheme
	Pickup  geom.Point
	T0      sim.Time
	Spec    QuerySpec
	Profile mobility.Profile
}

// setupMsg builds the query tree for period K, flooded inside the query
// area (plus a router margin) by the collector.
type setupMsg struct {
	QueryID  uint32
	Version  int
	K        int
	Root     radio.NodeID
	RootPos  geom.Point
	Pickup   geom.Point
	Deadline sim.Time
	Spec     QuerySpec
}

// recruitEntry invites sleeping nodes into one pending query tree.
type recruitEntry struct {
	QueryID  uint32
	Version  int
	K        int
	Pickup   geom.Point
	Radius   float64
	SampleAt sim.Time
	Deadline sim.Time
}

// recruitMsg is the per-active-window batched leaf recruitment broadcast.
// The sender is the prospective parent.
type recruitMsg struct {
	Entries []recruitEntry
}

// size returns the on-air size of the batch.
func (m recruitMsg) size() int { return recruitBaseSize + recruitPerEntry*len(m.Entries) }

// reportMsg carries a partial aggregate toward the collector. Contribs
// lists the nodes whose readings Data holds: fidelity bookkeeping that
// reportSize does not count (a real deployment would not transmit it).
type reportMsg struct {
	QueryID  uint32
	Version  int
	K        int
	Data     Partial
	Contribs []radio.NodeID
}

// resultMsg is the aggregated query result travelling from the collector to
// the proxy. Pickup identifies the area the aggregate covers (the query
// area is the circle of radius Rq around it), letting the gateway judge how
// well a result matches its actual position. Contribs is reportMsg's
// off-air contributor list.
type resultMsg struct {
	QueryID  uint32
	K        int
	Pickup   geom.Point
	Data     Partial
	Contribs []radio.NodeID
	Relayed  bool // one geographic relay attempt has been spent
}

// cancelMsg chases a superseded prefetch chain: state with version below
// NewVersion is torn down for periods at or after FromK. Earlier periods
// belong to the still-valid prefix of the old motion profile.
type cancelMsg struct {
	QueryID    uint32
	NewVersion int
	FromK      int
}
