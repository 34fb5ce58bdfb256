package core

import (
	"math/rand"
	"sort"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mac"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// treeKey identifies one query tree instance on a node. Version is part of
// the key: after a motion change, the new chain may rebuild period k's tree
// at a different pickup point while the old one still exists.
type treeKey struct {
	qid     uint32
	version int
	k       int
}

// treeState is a node's per-tree protocol state: its parent, the partial
// aggregate accumulated from its subtree and the nodes that contributed to
// it, and the timers driving sampling and the sub-deadline flush of
// equation (1).
type treeState struct {
	key      treeKey
	rootPos  geom.Point
	pickup   geom.Point
	deadline sim.Time
	spec     QuerySpec
	parent   radio.NodeID // -1 at the root
	inArea   bool
	acc      Partial
	contribs []radio.NodeID
	flushed  bool
	dead     bool

	sampleTimer   *sim.Timer
	flushTimer    *sim.Timer
	teardownTimer *sim.Timer
}

// forwardState tracks a collector's pending/last prefetch forward for one
// query, so cancel messages can chase (or cap) the chain.
type forwardState struct {
	version    int
	k          int // period this node collected for
	nextPickup geom.Point
	forwarded  bool
	holdTimer  *sim.Timer
	msg        *prefetchMsg // pending forward, mutable until sent
}

// agent is the MobiQuery protocol instance on one node (sensor nodes and
// the proxy alike; the proxy's agent has isSensor=false and a resultSink).
type agent struct {
	svc  *Service
	node *netstack.Node
	// isSensor nodes sample the field and count toward fidelity. Proxies
	// participate in trees (as NP roots) but never sample.
	isSensor bool
	// resultSinks (proxy agents only) consume results for the queries this
	// node serves as gateway for.
	resultSinks map[uint32]func(resultMsg)

	rng        *rand.Rand
	trees      map[treeKey]*treeState
	leafJoined map[treeKey]*leafState
	pending    map[treeKey]*treeState // trees awaiting leaf recruitment
	recruitArm bool                   // a recruit tick is scheduled
	forwards   map[uint32]*forwardState
	gates      map[uint32]gate
}

// gate records the latest motion-profile version a node knows of and the
// first period that version governs. Older-version state remains valid for
// periods before fromK: the old profile is still in effect until the new
// one's ts (Section 4.1.2's validity model).
type gate struct {
	version int
	fromK   int
}

// stale reports whether protocol state (version, k) has been superseded.
func (g gate) stale(version, k int) bool {
	return version < g.version && k >= g.fromK
}

// advance merges a newly learned (version, fromK) pair into the gate.
func (g gate) advance(version, fromK int) gate {
	if version > g.version {
		return gate{version: version, fromK: fromK}
	}
	if version == g.version && fromK < g.fromK {
		g.fromK = fromK
	}
	return g
}

// leafState is a duty-cycled node's membership in one query tree.
type leafState struct {
	parent   radio.NodeID
	deadline sim.Time
}

func newAgent(svc *Service, node *netstack.Node, isSensor bool) *agent {
	a := &agent{
		svc:         svc,
		node:        node,
		isSensor:    isSensor,
		rng:         svc.eng.RNG("core"),
		resultSinks: make(map[uint32]func(resultMsg)),
		trees:       make(map[treeKey]*treeState),
		leafJoined:  make(map[treeKey]*leafState),
		pending:     make(map[treeKey]*treeState),
		forwards:    make(map[uint32]*forwardState),
		gates:       make(map[uint32]gate),
	}
	node.Handle(portPrefetch, a.onPrefetch)
	node.HandleFlood(portSetup, a.onSetup)
	node.Handle(portRecruit, a.onRecruit)
	node.Handle(portReport, a.onReport)
	node.Handle(portResultRelay, a.onResultRelay)
	node.Handle(portCancel, a.onCancel)
	return a
}

func (a *agent) eng() *sim.Engine { return a.svc.eng }
func (a *agent) now() sim.Time    { return a.svc.eng.Now() }

// jitter draws a uniform delay in [0, max) to decorrelate transmissions
// that the protocol would otherwise schedule at identical instants on many
// nodes (window starts, shared sub-deadlines).
func (a *agent) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(a.rng.Int63n(int64(max)))
}

// ---------------------------------------------------------------- prefetch

// onPrefetch runs on the node chosen as collector for period msg.K: it
// disseminates the query tree and schedules the next prefetch forward
// according to the active scheme (just-in-time hold or greedy).
func (a *agent) onPrefetch(_ radio.NodeID, body any) {
	msg, ok := body.(prefetchMsg)
	if !ok {
		return
	}
	g := a.gates[msg.QueryID]
	if g.stale(msg.Version, msg.K) {
		return // superseded by a newer motion profile
	}
	a.gates[msg.QueryID] = g.advance(msg.Version, msg.FromK)

	fw := a.forwards[msg.QueryID]
	if fw != nil && fw.version == msg.Version && fw.k >= msg.K {
		return // duplicate delivery of a prefetch we already handled
	}

	now := a.now()
	deadline := msg.Spec.Deadline(msg.T0, msg.K)
	if now < deadline-collectorMargin {
		// Disseminate the query tree for this period. The flood scope
		// extends past the query area so boundary leaves still find a
		// router/recruiter, per DESIGN.md.
		scope := geom.Circle{C: msg.Pickup, R: msg.Spec.Radius + scopeMargin}
		a.node.StartFlood(scope, portSetup, setupMsg{
			QueryID:  msg.QueryID,
			Version:  msg.Version,
			K:        msg.K,
			Root:     a.node.ID(),
			RootPos:  a.node.Pos(),
			Pickup:   msg.Pickup,
			Deadline: deadline,
			Spec:     msg.Spec,
		}, setupSize)
	}

	// Forward the prefetch toward the next pickup point, unless the chain
	// has reached the query lifetime or its cap (a newer profile version
	// takes over from there).
	nextK := msg.K + 1
	capped := msg.UpToK > 0 && nextK >= msg.UpToK
	if g := a.gates[msg.QueryID]; g.version > msg.Version && nextK >= g.fromK {
		capped = true
	}
	if capped || msg.Spec.Deadline(msg.T0, nextK) > msg.T0+msg.Spec.Lifetime {
		a.forwards[msg.QueryID] = &forwardState{version: msg.Version, k: msg.K, forwarded: false}
		return
	}
	nextDeadline := msg.Spec.Deadline(msg.T0, nextK)
	nextPickup := msg.Profile.PredictAt(nextDeadline)
	sendAt := now
	if msg.Scheme == SchemeJIT {
		// Equation (10): the kth collector forwards no later than
		// k*Tperiod - Tsleep - 2*Tfresh (query-relative); holding until
		// (just under) that bound is what limits storage and contention.
		// The ForwardLead safety margin also de-phases tree setups from
		// collection bursts: Tsleep + 2*Tfresh is congruent to Tfresh modulo
		// Tperiod for the paper's parameters, so without it every setup
		// flood would land exactly on a sample instant.
		hold := msg.Spec.Deadline(msg.T0, msg.K) - a.svc.sleepPeriod() - 2*msg.Spec.Fresh - a.svc.cfg.ForwardLead
		if hold > sendAt {
			sendAt = hold
		}
	}
	fwdMsg := msg
	fwdMsg.K = nextK
	fwdMsg.Pickup = nextPickup
	st := &forwardState{version: msg.Version, k: msg.K, nextPickup: nextPickup, msg: &fwdMsg}
	if fw != nil && fw.holdTimer != nil {
		a.eng().Cancel(fw.holdTimer)
	}
	if fw != nil && fw.forwarded && fw.version < msg.Version && fw.k+1 >= msg.FromK {
		// This node sat on an older chain whose remainder is now stale;
		// chase it down before the slot is reused for the new chain. The
		// flag is cleared first: GeoSend can deliver locally and re-enter
		// the cancel handler synchronously.
		fw.forwarded = false
		a.node.GeoSend(fw.nextPickup, a.svc.cfg.PickupRadius, portCancel,
			cancelMsg{QueryID: msg.QueryID, NewVersion: msg.Version, FromK: msg.FromK}, cancelSize)
	}
	a.forwards[msg.QueryID] = st
	send := func() {
		st.forwarded = true
		st.holdTimer = nil
		a.node.GeoSend(nextPickup, a.svc.cfg.PickupRadius, portPrefetch, *st.msg, prefetchSize)
	}
	if sendAt <= now {
		send()
	} else {
		st.holdTimer = a.eng().Schedule(sendAt, send)
	}
}

// onCancel tears down state belonging to superseded motion profiles and
// chases the old chain onward.
func (a *agent) onCancel(_ radio.NodeID, body any) {
	msg, ok := body.(cancelMsg)
	if !ok {
		return
	}
	a.gates[msg.QueryID] = a.gates[msg.QueryID].advance(msg.NewVersion, msg.FromK)
	now := a.now()
	victims := make([]*treeState, 0, len(a.trees))
	for key, ts := range a.trees {
		if key.qid != msg.QueryID || !a.gates[msg.QueryID].stale(key.version, key.k) {
			continue
		}
		// Trees already sampling may still deliver a useful result to the
		// diverged user; only cancel those whose sampling lies ahead.
		if ts.deadline-ts.spec.Fresh > now {
			victims = append(victims, ts)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].key.k < victims[j].key.k })
	for _, ts := range victims {
		a.teardown(ts)
	}
	fw := a.forwards[msg.QueryID]
	if fw == nil || fw.version >= msg.NewVersion {
		return
	}
	if fw.msg != nil && fw.msg.K < msg.FromK {
		// The pending forward still serves the valid prefix of the old
		// profile; cap the chain at the new version's first period.
		if fw.msg.UpToK == 0 || fw.msg.UpToK > msg.FromK {
			fw.msg.UpToK = msg.FromK
		}
	} else if fw.holdTimer != nil {
		a.eng().Cancel(fw.holdTimer)
		fw.holdTimer = nil
	}
	if fw.forwarded {
		// Chase the chain onward: downstream collectors either cap their
		// still-valid prefix at FromK or cancel outright. Clear the flag
		// before sending: GeoSend can deliver locally and re-enter this
		// handler synchronously.
		fw.forwarded = false // chase once
		a.node.GeoSend(fw.nextPickup, a.svc.cfg.PickupRadius, portCancel, msg, cancelSize)
	}
}

// ------------------------------------------------------------ tree setup

// onSetup handles one copy of a query-tree setup flood. Always-on nodes
// join the tree (first relay heard becomes the parent); duty-cycled nodes
// that happen to be awake join directly as leaves.
func (a *agent) onSetup(relay, _ radio.NodeID, body any, _ int) {
	msg, ok := body.(setupMsg)
	if !ok {
		return
	}
	if a.gates[msg.QueryID].stale(msg.Version, msg.K) {
		return
	}
	key := treeKey{msg.QueryID, msg.Version, msg.K}
	now := a.now()
	sampleAt := msg.Deadline - msg.Spec.Fresh

	if a.node.Role() == mac.RoleDutyCycled {
		a.joinAsLeaf(key, relay, msg.Pickup, msg.Spec.Radius, sampleAt, msg.Deadline)
		return
	}

	if _, exists := a.trees[key]; exists {
		return // first-heard relay is the parent; later copies are ignored
	}
	if now >= msg.Deadline-collectorMargin {
		return // too late for this period
	}
	ts := &treeState{
		key:      key,
		rootPos:  msg.RootPos,
		pickup:   msg.Pickup,
		deadline: msg.Deadline,
		spec:     msg.Spec,
		parent:   relay,
		inArea:   a.isSensor && a.node.Pos().Within(msg.Pickup, msg.Spec.Radius),
		acc:      NewPartial(),
	}
	if a.node.ID() == msg.Root {
		ts.parent = -1
	}
	a.trees[key] = ts
	a.svc.hooks.onTreeUp(a.node.ID(), msg.K, now)

	if ts.inArea {
		at := sampleAt
		if at < now {
			at = now // late (warmup) setup: sample immediately, still fresh
		}
		ts.sampleTimer = a.eng().Schedule(at, func() { a.sampleInto(ts) })
	}
	ts.flushTimer = a.eng().Schedule(a.flushAt(ts), func() { a.flush(ts) })
	ts.teardownTimer = a.eng().Schedule(msg.Deadline+teardownGrace, func() { a.teardown(ts) })

	// Arm leaf recruitment for the coming active windows.
	a.pending[key] = ts
	a.armRecruit()
}

// flushAt computes the node's sub-deadline per equation (1), clamped so
// that (a) the flush happens after the node's own sample, and (b) children
// beat the root's result dispatch.
func (a *agent) flushAt(ts *treeState) sim.Time {
	now := a.now()
	if ts.parent < 0 {
		at := ts.deadline - collectorMargin
		if at < now {
			at = now
		}
		return at
	}
	frac := a.node.Pos().Dist(ts.rootPos) / (a.svc.cfg.PickupRadius + ts.spec.Radius)
	du := ts.deadline - sim.Time(frac*float64(ts.spec.Fresh))
	sampleAt := ts.deadline - ts.spec.Fresh
	if min := sampleAt + flushMargin; du < min {
		du = min // routers beyond Rp+Rq must still wait for leaf samples
	}
	du += a.jitter(20 * time.Millisecond) // decorrelate clamped flushes
	if max := ts.deadline - collectorMargin - 10*time.Millisecond; du > max {
		du = max // collector-adjacent nodes must beat the result dispatch
	}
	if du < now {
		du = now
	}
	return du
}

// sampleInto reads the sensor and folds the reading into the tree's
// accumulator. The reading is taken at or after deadline-Tfresh, so it is
// fresh at delivery by construction.
func (a *agent) sampleInto(ts *treeState) {
	if ts.dead || ts.flushed {
		return
	}
	v := a.svc.field.Sample(a.node.Pos(), a.now())
	ts.acc.Add(v)
	ts.contribs = append(ts.contribs, a.node.ID())
}

// flush sends the accumulated partial to the parent (or dispatches the
// result at the root). Reports arriving after the flush are dropped — the
// timeout behaviour of Section 4.4.
func (a *agent) flush(ts *treeState) {
	if ts.dead || ts.flushed {
		return
	}
	ts.flushed = true
	if ts.parent < 0 {
		a.dispatchResult(ts)
		return
	}
	if ts.acc.Count == 0 {
		return // nothing to contribute
	}
	msg := reportMsg{QueryID: ts.key.qid, Version: ts.key.version, K: ts.key.k, Data: ts.acc, Contribs: ts.contribs}
	a.node.Send(ts.parent, portReport, msg, reportSize, func(ok bool) {
		if !ok {
			a.reportFallback(ts.rootPos, ts.deadline, msg)
		}
	})
}

// onReport merges a child's partial into the local accumulator, provided
// this node still holds the tree and has not flushed.
func (a *agent) onReport(_ radio.NodeID, body any) {
	msg, ok := body.(reportMsg)
	if !ok {
		return
	}
	key := treeKey{msg.QueryID, msg.Version, msg.K}
	ts := a.trees[key]
	if ts == nil || ts.dead {
		return
	}
	if ts.flushed {
		// The sub-deadline timeout stops this node *waiting*, not the data:
		// late partials are passed through unaggregated while the collector
		// can still use them (TAG-style late forwarding). Only the root has
		// truly finished once it dispatched.
		if ts.parent >= 0 && a.now() < ts.deadline-collectorMargin {
			a.node.Send(ts.parent, portReport, msg, reportSize, nil)
		}
		return
	}
	ts.acc.Merge(msg.Data)
	ts.contribs = append(ts.contribs, msg.Contribs...)
}

// dispatchResult sends the aggregated result from the collector to the
// user. If the proxy is in radio range it is addressed directly; otherwise
// one geographic relay toward the proxy's announced position is attempted.
func (a *agent) dispatchResult(ts *treeState) {
	msg := resultMsg{
		QueryID:  ts.key.qid,
		K:        ts.key.k,
		Pickup:   ts.pickup,
		Data:     ts.acc,
		Contribs: ts.contribs,
	}
	a.deliverResult(msg)
}

// deliverResult moves a result toward its query's proxy from this node.
func (a *agent) deliverResult(msg resultMsg) {
	if sink := a.resultSinks[msg.QueryID]; sink != nil {
		sink(msg)
		return
	}
	proxy := a.svc.proxies[msg.QueryID]
	if proxy == nil {
		return // unknown query (stale state after user departure)
	}
	if a.svc.nw.InRange(a.node.ID(), proxy.ID()) {
		a.node.Send(proxy.ID(), portResult, msg, resultSize, nil)
		return
	}
	if msg.Relayed {
		return // the user is not where we thought; the result is lost
	}
	// The proxy periodically announces its position to nearby nodes (it is
	// always on); route toward that position and retry the direct hop.
	msg.Relayed = true
	a.node.GeoSend(proxy.Pos(), a.svc.cfg.PickupRadius, portResultRelay, msg, resultSize)
}

// onResultRelay continues a geo-relayed result toward the proxy.
func (a *agent) onResultRelay(_ radio.NodeID, body any) {
	msg, ok := body.(resultMsg)
	if !ok {
		return
	}
	a.deliverResult(msg)
}

// ------------------------------------------------------------ recruitment

// armRecruit schedules the next batched recruit broadcast if one is not
// already armed. Recruit broadcasts happen inside common active windows so
// duty-cycled nodes can hear them.
func (a *agent) armRecruit() {
	if a.recruitArm || len(a.pending) == 0 {
		return
	}
	at := a.svc.macCfg.BroadcastTime(a.now()) + a.jitter(20*time.Millisecond)
	a.recruitArm = true
	a.eng().Schedule(at, a.recruitTick)
}

// recruitTick broadcasts one batched recruit message covering every pending
// tree whose sampling time is still usefully ahead, then re-arms for the
// next window while any tree remains pending.
func (a *agent) recruitTick() {
	a.recruitArm = false
	now := a.now()
	// Deterministic entry order: map iteration order must not leak into
	// the event sequence (leaf joins draw jitter per entry).
	keys := make([]treeKey, 0, len(a.pending))
	for key := range a.pending {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.qid != b.qid {
			return a.qid < b.qid
		}
		if a.version != b.version {
			return a.version < b.version
		}
		return a.k < b.k
	})
	var entries []recruitEntry
	for _, key := range keys {
		ts := a.pending[key]
		if ts.dead {
			delete(a.pending, key)
			continue
		}
		sampleAt := ts.deadline - ts.spec.Fresh
		if sampleAt <= now+recruitLead {
			delete(a.pending, key) // too late for sleepers to join
			continue
		}
		entries = append(entries, recruitEntry{
			QueryID:  key.qid,
			Version:  key.version,
			K:        key.k,
			Pickup:   ts.pickup,
			Radius:   ts.spec.Radius,
			SampleAt: sampleAt,
			Deadline: ts.deadline,
		})
	}
	if len(entries) > 0 {
		msg := recruitMsg{Entries: entries}
		a.node.Broadcast(portRecruit, msg, msg.size())
	}
	if len(a.pending) > 0 {
		// Re-arm for the next window: entries stay pending until their
		// sample time passes, so sleepers that missed this window (or whose
		// copy collided) get another chance.
		a.recruitArm = true
		a.eng().Schedule(a.svc.macCfg.NextWindowStart(now)+a.jitter(20*time.Millisecond), a.recruitTick)
	}
}

// onRecruit lets a duty-cycled node join advertised trees as a leaf.
func (a *agent) onRecruit(src radio.NodeID, body any) {
	msg, ok := body.(recruitMsg)
	if !ok {
		return
	}
	if a.node.Role() != mac.RoleDutyCycled {
		return // tree members already joined via the setup flood
	}
	for _, e := range msg.Entries {
		key := treeKey{e.QueryID, e.Version, e.K}
		a.joinAsLeaf(key, src, e.Pickup, e.Radius, e.SampleAt, e.Deadline)
	}
}

// joinAsLeaf schedules a sleeping node's just-in-time participation: wake
// at the sample time, read the sensor, report to the parent, sleep again.
func (a *agent) joinAsLeaf(key treeKey, parent radio.NodeID, pickup geom.Point, radius float64, sampleAt, deadline sim.Time) {
	if !a.isSensor || !a.node.Pos().Within(pickup, radius) {
		return
	}
	if a.gates[key.qid].stale(key.version, key.k) {
		return
	}
	if _, joined := a.leafJoined[key]; joined {
		return
	}
	now := a.now()
	if sampleAt < now {
		if now >= deadline {
			return
		}
		sampleAt = now // heard the setup late but can still contribute
	}
	ls := &leafState{parent: parent, deadline: deadline}
	a.node.MAC().WakeAt(sampleAt, sampleAt+leafAwake)
	reportAt := sampleAt + time.Millisecond + a.jitter(30*time.Millisecond)
	a.eng().Schedule(reportAt, func() { a.leafReport(key, ls) })
	a.leafJoined[key] = ls
}

// leafReport performs the leaf's single sample-and-transmit.
func (a *agent) leafReport(key treeKey, ls *leafState) {
	if a.gates[key.qid].stale(key.version, key.k) {
		return // canceled while asleep
	}
	p := NewPartial()
	p.Add(a.svc.field.Sample(a.node.Pos(), a.now()))
	msg := reportMsg{QueryID: key.qid, Version: key.version, K: key.k, Data: p, Contribs: []radio.NodeID{a.node.ID()}}
	a.node.Send(ls.parent, portReport, msg, reportSize, func(ok bool) {
		if !ok {
			a.reportFallback(a.svc.nw.Node(ls.parent).Pos(), ls.deadline, msg)
		}
	})
}

// reportFallback reroutes a report whose tree link failed at the MAC layer:
// the partial is forwarded geographically toward the collector, where any
// tree member that receives it merges it (or passes it along if already
// flushed). This is the standard network-layer answer to a dead link and
// keeps single MAC failures from erasing whole subtrees.
func (a *agent) reportFallback(rootPos geom.Point, deadline sim.Time, msg reportMsg) {
	if a.now() >= deadline-collectorMargin {
		return // too late to matter
	}
	a.node.GeoSend(rootPos, 30, portReport, msg, reportSize)
}

// ------------------------------------------------------------- teardown

// teardown removes a tree's state and cancels its timers.
func (a *agent) teardown(ts *treeState) {
	if ts.dead {
		return
	}
	ts.dead = true
	a.eng().Cancel(ts.sampleTimer)
	a.eng().Cancel(ts.flushTimer)
	a.eng().Cancel(ts.teardownTimer)
	delete(a.trees, ts.key)
	delete(a.pending, ts.key)
	a.svc.hooks.onTreeDown(a.node.ID(), ts.key.k, a.now())
}

// liveTrees returns the number of query trees currently held (a storage
// metric).
func (a *agent) liveTrees() int { return len(a.trees) }
