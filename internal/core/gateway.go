package core

import (
	"math"

	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// PeriodResult is the outcome of one query period as seen by the user.
type PeriodResult struct {
	K        int
	Deadline sim.Time
	Received bool
	Arrival  sim.Time
	OnTime   bool
	Pickup   geom.Point // center of the area the result covers
	Data     Partial
	// Contribs lists the sensor nodes whose readings Data aggregates, for
	// the fidelity metrics; the radio path carries it off air.
	Contribs []radio.NodeID
}

// Gateway is the query gateway running on the user's proxy (Section 4): it
// issues the query with attached motion profiles, starts and cancels
// prefetch chains as profiles change, floods NP queries directly, and
// receives results.
type Gateway struct {
	svc      *Service
	qid      uint32
	scheme   Scheme
	spec     QuerySpec
	t0       sim.Time
	proxy    *netstack.Node
	course   mobility.Course
	profiles []mobility.TimedProfile

	version     int
	holds       []*gwHold
	firstPickup geom.Point
	forwarded   bool

	results map[int]PeriodResult
	scores  map[int]float64
}

// gwHold is a pending (just-in-time held) chain launch at the gateway.
type gwHold struct {
	version int
	k       int
	timer   *sim.Timer
	msg     prefetchMsg
}

func newGateway(svc *Service, qid uint32, scheme Scheme, spec QuerySpec, course mobility.Course, profiler mobility.Profiler, proxy *netstack.Node) *Gateway {
	return &Gateway{
		svc:      svc,
		qid:      qid,
		scheme:   scheme,
		spec:     spec,
		t0:       svc.cfg.T0,
		proxy:    proxy,
		course:   course,
		profiles: profiler.Profiles(),
		results:  make(map[int]PeriodResult),
		scores:   make(map[int]float64),
	}
}

// start schedules the proxy's movement, the profile deliveries (JIT/GP), or
// the per-period floods (NP).
func (g *Gateway) start() {
	g.moveTick()

	if g.scheme == SchemeNP {
		for k := 1; k <= g.spec.Periods(); k++ {
			k := k
			issueAt := g.spec.Deadline(g.t0, k) - g.spec.Period
			if issueAt < 0 {
				issueAt = 0
			}
			g.svc.eng.Schedule(issueAt, func() { g.npFlood(k) })
		}
		return
	}
	for _, tp := range g.profiles {
		tp := tp
		deliver := tp.Deliver
		if deliver < g.t0 {
			deliver = g.t0
		}
		g.svc.eng.Schedule(deliver, func() { g.onProfile(tp.Profile) })
	}
}

// moveTick advances the proxy along the ground-truth course.
func (g *Gateway) moveTick() {
	g.proxy.Move(g.course.PosAt(g.svc.eng.Now()))
	g.svc.eng.After(moveInterval, g.moveTick)
}

// onProfile reacts to a new motion profile. Periods whose deadlines fall
// before the profile's effective time ts still belong to the old profile
// (Section 4.1.2's validity model): the old chain keeps serving them and is
// capped at the new profile's first period FromK. State for periods at or
// after FromK under old versions is canceled, and a new chain is launched
// with the just-in-time hold when the scheme calls for it.
func (g *Gateway) onProfile(p mobility.Profile) {
	cfg := g.svc.cfg
	now := g.svc.eng.Now()
	if p.Version <= g.version {
		return
	}

	// First period governed by the new profile: deadline past its ts (and
	// far enough ahead to be actionable).
	effective := p.TS
	if effective < now {
		effective = now
	}
	fromK := int((effective-g.t0)/sim.Time(g.spec.Period)) + 1
	if fromK < 1 {
		fromK = 1
	}
	for fromK <= g.spec.Periods() && g.spec.Deadline(g.t0, fromK) <= now+collectorMargin {
		fromK++
	}

	// Cancel superseded holds at the gateway and chase the launched chain.
	kept := g.holds[:0]
	for _, h := range g.holds {
		if h.k >= fromK {
			g.svc.eng.Cancel(h.timer)
			continue
		}
		// Still-valid prefix: cap it at the new version's first period.
		if h.msg.UpToK == 0 || h.msg.UpToK > fromK {
			h.msg.UpToK = fromK
		}
		kept = append(kept, h)
	}
	g.holds = kept
	if g.forwarded {
		g.proxy.GeoSend(g.firstPickup, cfg.PickupRadius, portCancel,
			cancelMsg{QueryID: g.qid, NewVersion: p.Version, FromK: fromK}, cancelSize)
	}
	g.version = p.Version

	if fromK > g.spec.Periods() {
		return // query lifetime exhausted
	}
	pickup := p.PredictAt(g.spec.Deadline(g.t0, fromK))
	msg := prefetchMsg{
		QueryID: g.qid,
		Version: p.Version,
		K:       fromK,
		FromK:   fromK,
		Scheme:  g.scheme,
		Pickup:  pickup,
		T0:      g.t0,
		Spec:    g.spec,
		Profile: p,
	}
	sendAt := now
	if g.scheme == SchemeJIT {
		// The gateway plays the role of collector k-1 in equation (10).
		hold := g.spec.Deadline(g.t0, fromK-1) - g.svc.sleepPeriod() - 2*g.spec.Fresh - cfg.ForwardLead
		if hold > sendAt {
			sendAt = hold
		}
	}
	h := &gwHold{version: p.Version, k: fromK, msg: msg}
	send := func() {
		if g.version != h.version {
			return // superseded while holding
		}
		g.firstPickup = h.msg.Pickup
		g.forwarded = true
		g.proxy.GeoSend(h.msg.Pickup, cfg.PickupRadius, portPrefetch, h.msg, prefetchSize)
	}
	if sendAt <= now {
		send()
	} else {
		h.timer = g.svc.eng.Schedule(sendAt, send)
		g.holds = append(g.holds, h)
	}
}

// npFlood implements the No-Prefetching baseline: at each period start the
// user broadcasts the query into the current area, rooted at the proxy.
func (g *Gateway) npFlood(k int) {
	pos := g.proxy.Pos()
	scope := geom.Circle{C: pos, R: g.spec.Radius + scopeMargin}
	g.proxy.StartFlood(scope, portSetup, setupMsg{
		QueryID:  g.qid,
		Version:  0,
		K:        k,
		Root:     g.proxy.ID(),
		RootPos:  pos,
		Pickup:   pos,
		Deadline: g.spec.Deadline(g.t0, k),
		Spec:     g.spec,
	}, setupSize)
}

// recordResult stores the best result received for each period. On-time
// beats late; among those, results are scored by expected in-area coverage:
// contributor count scaled by how much the result's area (the circle of
// radius Rq around its pickup point) overlaps the user's actual query area.
// After a motion change this naturally hands over from the old chain's
// drifting results to the new chain's as the latter warms up.
func (g *Gateway) recordResult(msg resultMsg) {
	now := g.svc.eng.Now()
	deadline := g.spec.Deadline(g.t0, msg.K)
	pr := PeriodResult{
		K:        msg.K,
		Deadline: deadline,
		Received: true,
		Arrival:  now,
		OnTime:   now <= deadline,
		Pickup:   msg.Pickup,
		Data:     msg.Data,
		Contribs: msg.Contribs,
	}
	score := float64(msg.Data.Count) *
		circleOverlap(msg.Pickup.Dist(g.proxy.Pos()), g.spec.Radius)
	old, exists := g.results[msg.K]
	if exists {
		oldScore := g.scores[msg.K]
		if old.OnTime && !pr.OnTime {
			return
		}
		if old.OnTime == pr.OnTime && oldScore >= score {
			return
		}
	}
	g.results[msg.K] = pr
	g.scores[msg.K] = score
}

// circleOverlap returns the fractional overlap area of two circles of equal
// radius r whose centers are d apart (1 when coincident, 0 when disjoint).
func circleOverlap(d, r float64) float64 {
	if d >= 2*r {
		return 0
	}
	if d <= 0 {
		return 1
	}
	// Lens area of two equal circles divided by the circle area.
	lens := 2*r*r*math.Acos(d/(2*r)) - d/2*math.Sqrt(4*r*r-d*d)
	return lens / (math.Pi * r * r)
}

// Results returns one entry per query period, in order; periods with no
// delivered result have Received=false.
func (g *Gateway) Results() []PeriodResult {
	out := make([]PeriodResult, 0, g.spec.Periods())
	for k := 1; k <= g.spec.Periods(); k++ {
		if pr, ok := g.results[k]; ok {
			out = append(out, pr)
			continue
		}
		out = append(out, PeriodResult{
			K:        k,
			Deadline: g.spec.Deadline(g.t0, k),
		})
	}
	return out
}
