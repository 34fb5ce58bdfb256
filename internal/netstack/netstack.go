// Package netstack provides the network layer of the MobiQuery simulator:
// node runtime objects, port-based message demultiplexing, scoped flooding
// over the always-on backbone, and greedy geographic forwarding with area
// anycast (the SPEED-style primitive the paper uses to deliver prefetch
// messages to pickup points).
//
// Bodies carried in messages are shared by reference between sender and
// receivers for efficiency; handlers must treat them as immutable.
package netstack

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mobiquery/internal/energy"
	"mobiquery/internal/geom"
	"mobiquery/internal/mac"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// Port identifies an upper-layer protocol endpoint on a node.
type Port uint8

// Envelope size overheads, in bytes, added to body sizes for airtime
// accounting.
const (
	plainOverhead = 4
	floodOverhead = 16
	geoOverhead   = 16
)

// Handler consumes a message delivered to a port. src is the one-hop sender
// (the last relay for flooded or routed messages).
type Handler func(src radio.NodeID, body any)

// FloodHandler consumes a flooded message. relay is the neighbour the copy
// arrived from (used for parent selection when building query trees), and
// hops counts relay hops from the origin (0 = heard the origin itself).
type FloodHandler func(relay radio.NodeID, origin radio.NodeID, body any, hops int)

// Stats counts network-layer events across all nodes.
type Stats struct {
	FloodsStarted   uint64
	FloodRelays     uint64
	GeoSent         uint64
	GeoDelivered    uint64
	GeoBestEffort   uint64 // delivered at closest reachable node, outside radius
	GeoDropped      uint64 // max hops exceeded or all next hops failed
	GeoLinkFailures uint64 // per-hop delivery failures rerouted or dropped
}

// Network owns the medium and all node runtimes for one simulation.
type Network struct {
	eng         *sim.Engine
	med         *radio.Medium
	macCfg      mac.Config
	profile     energy.Profile
	nodes       map[radio.NodeID]*Node
	order       []radio.NodeID // deterministic iteration order
	neighbors   map[radio.NodeID][]neighbor
	frozen      bool
	stats       Stats
	nextFloodID uint32
	floodJitter time.Duration
	rng         *rand.Rand
}

// neighbor is a precomputed static neighbour table entry.
type neighbor struct {
	id   radio.NodeID
	pos  geom.Point
	role mac.Role
}

// NewNetwork creates an empty network over a fresh medium.
func NewNetwork(eng *sim.Engine, region geom.Rect, radioParams radio.Params, macCfg mac.Config) *Network {
	return &Network{
		eng:         eng,
		med:         radio.NewMedium(eng, region, radioParams),
		macCfg:      macCfg,
		profile:     energy.Cabletron80211(),
		nodes:       make(map[radio.NodeID]*Node),
		neighbors:   make(map[radio.NodeID][]neighbor),
		floodJitter: 15 * time.Millisecond,
		rng:         eng.RNG("netstack"),
	}
}

// SetFloodJitter adjusts the random assessment delay applied before flood
// rebroadcasts. Hidden-terminal relays whose rebroadcasts would otherwise
// start within one airtime of each other collide at common neighbours; the
// jitter (a standard WSN broadcast technique) decorrelates them.
func (nw *Network) SetFloodJitter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	nw.floodJitter = d
}

// Engine returns the simulation engine.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Medium returns the shared radio medium.
func (nw *Network) Medium() *radio.Medium { return nw.med }

// MACConfig returns the link-layer configuration shared by all nodes.
func (nw *Network) MACConfig() mac.Config { return nw.macCfg }

// Stats returns a snapshot of network-layer counters.
func (nw *Network) Stats() Stats { return nw.stats }

// AddNode creates a sensor node at pos with the given power-management
// role. Nodes must be added before Start.
func (nw *Network) AddNode(id radio.NodeID, pos geom.Point, role mac.Role) *Node {
	return nw.add(id, pos, role, true)
}

// AddProxy creates the mobile user's proxy device: always on, never used as
// a routing relay (it moves), and excluded from static neighbour tables.
func (nw *Network) AddProxy(id radio.NodeID, pos geom.Point) *Node {
	return nw.add(id, pos, mac.RoleAlwaysOn, false)
}

func (nw *Network) add(id radio.NodeID, pos geom.Point, role mac.Role, relay bool) *Node {
	if nw.frozen {
		panic("netstack: AddNode after Start")
	}
	if _, dup := nw.nodes[id]; dup {
		panic(fmt.Sprintf("netstack: duplicate node %d", id))
	}
	rad := nw.med.Attach(id, pos, nil)
	meter := energy.NewMeter(nw.profile, nw.eng.Now, energy.ModeIdle)
	rad.SetMeter(meter)
	n := &Node{
		id:       id,
		net:      nw,
		mac:      mac.New(nw.eng, rad, nw.macCfg, role),
		relay:    relay,
		handlers: make(map[Port]Handler),
		floods:   make(map[Port]FloodHandler),
		seen:     make(map[floodKey]struct{}),
	}
	n.mac.OnReceive(n.onReceive)
	nw.nodes[id] = n
	nw.order = append(nw.order, id)
	return n
}

// Node returns the node with the given id, or nil.
func (nw *Network) Node(id radio.NodeID) *Node { return nw.nodes[id] }

// NodeIDs returns all node ids in creation order.
func (nw *Network) NodeIDs() []radio.NodeID {
	return append([]radio.NodeID(nil), nw.order...)
}

// InRange reports whether two nodes are currently within radio range.
func (nw *Network) InRange(a, b radio.NodeID) bool { return nw.med.InRange(a, b) }

// Start freezes the topology, builds neighbour tables, and arms every
// node's MAC schedule. Call exactly once at simulation time zero.
func (nw *Network) Start() {
	if nw.frozen {
		panic("netstack: Start called twice")
	}
	nw.frozen = true
	nw.buildNeighborTables()
	for _, id := range nw.order {
		nw.nodes[id].mac.Start()
	}
}

// buildNeighborTables precomputes, for every relay node, its relay
// neighbours within communication range, sorted by id. The topology of
// sensor nodes is static (only the proxy moves), so one pass suffices; this
// models the neighbour discovery every WSN routing layer performs at
// deployment time.
func (nw *Network) buildNeighborTables() {
	rangeM := nw.med.Params().Range
	for _, id := range nw.order {
		n := nw.nodes[id]
		if !n.relay {
			continue
		}
		ids := nw.med.NodesWithin(nil, n.Pos(), rangeM)
		tbl := make([]neighbor, 0, len(ids))
		for _, nid := range ids {
			if nid == id {
				continue
			}
			nb := nw.nodes[nid]
			if nb == nil || !nb.relay {
				continue
			}
			tbl = append(tbl, neighbor{id: nid, pos: nb.Pos(), role: nb.Role()})
		}
		sort.Slice(tbl, func(i, j int) bool { return tbl[i].id < tbl[j].id })
		nw.neighbors[id] = tbl
	}
}

// Neighbors returns the ids of node id's relay neighbours (empty before
// Start).
func (nw *Network) Neighbors(id radio.NodeID) []radio.NodeID {
	tbl := nw.neighbors[id]
	out := make([]radio.NodeID, len(tbl))
	for i, nb := range tbl {
		out[i] = nb.id
	}
	return out
}

// floodKey identifies a flood instance for duplicate suppression.
type floodKey struct {
	origin radio.NodeID
	seq    uint32
}

// floodEnvelope is the on-air representation of a flooded message.
type floodEnvelope struct {
	Origin radio.NodeID
	Seq    uint32
	Scope  geom.Circle
	Port   Port
	Body   any
	Size   int
	Hops   int
}

// geoEnvelope is the on-air representation of a geographically routed
// message.
type geoEnvelope struct {
	Target  geom.Point
	Radius  float64
	Port    Port
	Body    any
	Size    int
	Hops    int
	MaxHops int
}

// plainEnvelope carries a direct one-hop message.
type plainEnvelope struct {
	Port Port
	Body any
}

// Node is one device's network runtime: a MAC plus protocol demux.
type Node struct {
	id       radio.NodeID
	net      *Network
	mac      *mac.MAC
	relay    bool
	handlers map[Port]Handler
	floods   map[Port]FloodHandler
	seen     map[floodKey]struct{}
}

// ID returns the node id.
func (n *Node) ID() radio.NodeID { return n.id }

// Pos returns the node's current position.
func (n *Node) Pos() geom.Point { return n.mac.Radio().Pos() }

// Move relocates the node (used by the proxy only).
func (n *Node) Move(p geom.Point) { n.mac.Radio().Move(p) }

// Role returns the node's power-management role.
func (n *Node) Role() mac.Role { return n.mac.Role() }

// MAC exposes the link layer (wake overrides, stats).
func (n *Node) MAC() *mac.MAC { return n.mac }

// Meter returns the node's energy meter.
func (n *Node) Meter() *energy.Meter { return n.mac.Radio().Meter() }

// Handle registers the handler for direct and geographically routed
// messages on a port. Registering twice panics.
func (n *Node) Handle(port Port, h Handler) {
	if _, dup := n.handlers[port]; dup {
		panic(fmt.Sprintf("netstack: node %d: duplicate handler for port %d", n.id, port))
	}
	n.handlers[port] = h
}

// HandleFlood registers the handler for flooded messages on a port.
func (n *Node) HandleFlood(port Port, h FloodHandler) {
	if _, dup := n.floods[port]; dup {
		panic(fmt.Sprintf("netstack: node %d: duplicate flood handler for port %d", n.id, port))
	}
	n.floods[port] = h
}

// Send transmits a one-hop unicast with link-layer retries. done (optional)
// reports the link-layer outcome.
func (n *Node) Send(dst radio.NodeID, port Port, body any, size int, done func(ok bool)) {
	n.mac.Send(dst, plainEnvelope{Port: port, Body: body}, size+plainOverhead, done)
}

// Broadcast transmits a one-hop broadcast.
func (n *Node) Broadcast(port Port, body any, size int) {
	n.mac.Broadcast(plainEnvelope{Port: port, Body: body}, size+plainOverhead)
}

// StartFlood floods body to every node inside scope, relayed by always-on
// nodes within scope. Delivery to this node's own flood handler happens
// immediately.
func (n *Node) StartFlood(scope geom.Circle, port Port, body any, size int) {
	nw := n.net
	nw.nextFloodID++
	nw.stats.FloodsStarted++
	env := floodEnvelope{
		Origin: n.id,
		Seq:    nw.nextFloodID,
		Scope:  scope,
		Port:   port,
		Body:   body,
		Size:   size,
	}
	n.seen[floodKey{env.Origin, env.Seq}] = struct{}{}
	if h := n.floods[port]; h != nil {
		h(n.id, n.id, body, 0)
	}
	n.mac.Broadcast(env, size+floodOverhead)
}

// GeoSend routes body toward target with greedy geographic forwarding over
// always-on relay neighbours, delivering to the first node within radius of
// target (area anycast). If the greedy walk reaches a node with no closer
// neighbour, the message is delivered there best-effort.
func (n *Node) GeoSend(target geom.Point, radius float64, port Port, body any, size int) {
	n.net.stats.GeoSent++
	env := &geoEnvelope{
		Target:  target,
		Radius:  radius,
		Port:    port,
		Body:    body,
		Size:    size,
		MaxHops: 64,
	}
	n.routeGeo(env)
}

// routeGeo delivers env locally or forwards it one greedy hop.
func (n *Node) routeGeo(env *geoEnvelope) {
	if n.Pos().Within(env.Target, env.Radius) {
		n.net.stats.GeoDelivered++
		n.deliver(env.Port, n.id, env.Body)
		return
	}
	if env.Hops >= env.MaxHops {
		n.net.stats.GeoDropped++
		return
	}
	n.tryNextHop(env, nil)
}

// tryNextHop attempts forwarding to the best not-yet-failed neighbour with
// strict progress toward the target. Link failures fall back to the next
// candidate; with no candidates left the message is delivered here
// best-effort (the caller becomes the collector, per the paper's provision
// that Rp "may vary depending on the density").
func (n *Node) tryNextHop(env *geoEnvelope, failed map[radio.NodeID]bool) {
	myDist := n.Pos().Dist(env.Target)
	var best radio.NodeID = -1
	bestDist := myDist
	for _, nb := range n.relayNeighbors() {
		if nb.role != mac.RoleAlwaysOn || failed[nb.id] {
			continue
		}
		if d := nb.pos.Dist(env.Target); d < bestDist {
			best, bestDist = nb.id, d
		}
	}
	if best < 0 {
		n.net.stats.GeoBestEffort++
		n.deliver(env.Port, n.id, env.Body)
		return
	}
	fwd := *env
	fwd.Hops++
	n.mac.Send(best, fwd, env.Size+geoOverhead, func(ok bool) {
		if ok {
			return
		}
		n.net.stats.GeoLinkFailures++
		if failed == nil {
			failed = make(map[radio.NodeID]bool)
		}
		failed[best] = true
		n.tryNextHop(env, failed)
	})
}

// relayNeighbors returns the node's forwarding candidates: the static
// table for fixed sensor nodes, or a live range query for the mobile proxy
// (whose neighbourhood changes as it moves).
func (n *Node) relayNeighbors() []neighbor {
	if n.relay {
		return n.net.neighbors[n.id]
	}
	ids := n.net.med.NodesWithin(nil, n.Pos(), n.net.med.Params().Range)
	tbl := make([]neighbor, 0, len(ids))
	for _, id := range ids {
		if id == n.id {
			continue
		}
		nb := n.net.nodes[id]
		if nb == nil || !nb.relay {
			continue
		}
		tbl = append(tbl, neighbor{id: id, pos: nb.Pos(), role: nb.Role()})
	}
	sort.Slice(tbl, func(i, j int) bool { return tbl[i].id < tbl[j].id })
	return tbl
}

// onReceive demultiplexes MAC deliveries.
func (n *Node) onReceive(src radio.NodeID, payload any) {
	switch env := payload.(type) {
	case plainEnvelope:
		n.deliver(env.Port, src, env.Body)
	case floodEnvelope:
		n.onFlood(src, env)
	case geoEnvelope:
		env.Hops++ // count the hop just taken
		n.routeGeo(&env)
	}
}

// onFlood handles one copy of a flooded message.
func (n *Node) onFlood(relay radio.NodeID, env floodEnvelope) {
	key := floodKey{env.Origin, env.Seq}
	if _, dup := n.seen[key]; dup {
		return
	}
	n.seen[key] = struct{}{}
	if h := n.floods[env.Port]; h != nil {
		h(relay, env.Origin, env.Body, env.Hops+1)
	}
	// Only always-on nodes inside the scope relay the flood; duty-cycled
	// nodes are leaves (they would burn energy staying awake to relay).
	if n.Role() != mac.RoleAlwaysOn || !n.relay || !env.Scope.Contains(n.Pos()) {
		return
	}
	n.net.stats.FloodRelays++
	fwd := env
	fwd.Hops++
	if j := n.net.floodJitter; j > 0 {
		delay := time.Duration(n.net.rng.Int63n(int64(j)))
		n.net.eng.After(delay, func() { n.mac.Broadcast(fwd, env.Size+floodOverhead) })
		return
	}
	n.mac.Broadcast(fwd, env.Size+floodOverhead)
}

// deliver hands a message body to the registered port handler.
func (n *Node) deliver(port Port, src radio.NodeID, body any) {
	if h := n.handlers[port]; h != nil {
		h(src, body)
	}
}
