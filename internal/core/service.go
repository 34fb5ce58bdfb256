package core

import (
	"fmt"
	"sort"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/mac"
	"mobiquery/internal/mobility"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// Scheme selects the prefetching strategy.
type Scheme int

const (
	// SchemeJIT is just-in-time prefetching: each collector holds the
	// prefetch message until the equation (10) bound.
	SchemeJIT Scheme = iota + 1
	// SchemeGP is greedy prefetching: forward immediately.
	SchemeGP
	// SchemeNP is the No-Prefetching baseline: the user floods the query at
	// each period start.
	SchemeNP
)

// String returns the scheme's evaluation label (MQ-JIT, MQ-GP, NP).
func (s Scheme) String() string {
	switch s {
	case SchemeJIT:
		return "MQ-JIT"
	case SchemeGP:
		return "MQ-GP"
	case SchemeNP:
		return "NP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config parameterizes a MobiQuery service instance.
type Config struct {
	// Spec is the spatiotemporal query specification.
	Spec QuerySpec
	// Scheme selects JIT, GP, or NP.
	Scheme Scheme
	// T0 is the query issue time. A small offset (default 500 ms)
	// de-synchronizes the query from the PSM schedule, as in a real
	// deployment.
	T0 sim.Time
	// PickupRadius is Rp: anycast delivery radius around pickup points.
	PickupRadius float64
	// ForwardLead is a safety margin subtracted from the equation (10)
	// just-in-time hold bound. It keeps prefetch forwarding (and the tree
	// setup it triggers) clear of the collection burst at deadline-Tfresh.
	ForwardLead time.Duration
}

// Protocol timing of the discrete-event run, as in the paper's evaluation.
const (
	// collectorMargin is how long before the deadline the collector
	// dispatches the result to the user; Validate requires Tfresh to
	// exceed it.
	collectorMargin = 30 * time.Millisecond
	// flushMargin is the minimum gap between a node's sample time and its
	// sub-deadline flush. It exceeds collectorMargin.
	flushMargin = 150 * time.Millisecond
	// recruitLead is the minimum time before a tree's sample instant for a
	// recruit entry to still be worth broadcasting.
	recruitLead = 20 * time.Millisecond
	// leafAwake is how long a recruited leaf stays awake past its sample
	// time to deliver the report.
	leafAwake = 250 * time.Millisecond
	// teardownGrace is how long after its deadline a tree's state persists.
	teardownGrace = time.Second
	// moveInterval is the proxy position update granularity.
	moveInterval = 100 * time.Millisecond
)

// scopeMargin (m) extends the setup flood past Rq so boundary leaves have a
// recruiting router: Rc/2 with the default 105 m range.
const scopeMargin = 52.5

// DefaultConfig returns the configuration used throughout the paper's
// evaluation for the given query spec.
func DefaultConfig(spec QuerySpec) Config {
	return Config{
		Spec:         spec,
		Scheme:       SchemeJIT,
		T0:           500 * time.Millisecond,
		ForwardLead:  250 * time.Millisecond,
		PickupRadius: 40,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Scheme < SchemeJIT || c.Scheme > SchemeNP:
		return fmt.Errorf("core: invalid scheme %d", int(c.Scheme))
	case c.PickupRadius <= 0:
		return fmt.Errorf("core: pickup radius must be positive")
	case c.Spec.Fresh <= collectorMargin:
		return fmt.Errorf("core: collector margin %v must be within (0, Tfresh)", collectorMargin)
	case c.ForwardLead < 0:
		return fmt.Errorf("core: forward lead must be non-negative")
	}
	return nil
}

// Hooks receive protocol events for metrics collection. Any field may be
// nil.
type Hooks struct {
	// OnTreeUp fires when a node instantiates query-tree state for period k.
	OnTreeUp func(node radio.NodeID, k int, at sim.Time)
	// OnTreeDown fires when that state is released.
	OnTreeDown func(node radio.NodeID, k int, at sim.Time)
}

// hookSet wraps Hooks with nil-safety.
type hookSet struct{ h Hooks }

func (hs hookSet) onTreeUp(n radio.NodeID, k int, at sim.Time) {
	if hs.h.OnTreeUp != nil {
		hs.h.OnTreeUp(n, k, at)
	}
}

func (hs hookSet) onTreeDown(n radio.NodeID, k int, at sim.Time) {
	if hs.h.OnTreeDown != nil {
		hs.h.OnTreeDown(n, k, at)
	}
}

// Service wires MobiQuery agents onto every node of a network plus one
// query gateway per mobile user. The single-user constructor New covers the
// paper's evaluation; AddUser supports multiple concurrent users, each with
// their own query, scheme and motion profiles.
type Service struct {
	eng      *sim.Engine
	nw       *netstack.Network
	cfg      Config
	macCfg   mac.Config
	field    field.Field
	agents   map[radio.NodeID]*agent
	gateways map[uint32]*Gateway
	proxies  map[uint32]*netstack.Node
	hooks    hookSet
	started  bool
}

// New builds a MobiQuery service over an un-started network with a single
// mobile user, whose query id is 1. proxyID must identify a node previously
// added with AddProxy; every other node gets a sensor agent. Call Start
// after netstack.Network.Start.
func New(nw *netstack.Network, cfg Config, fld field.Field, course mobility.Course, profiler mobility.Profiler, proxyID radio.NodeID, hooks Hooks) *Service {
	s := NewService(nw, cfg, fld, hooks)
	s.AddUser(1, cfg.Scheme, cfg.Spec, course, profiler, proxyID)
	return s
}

// NewService builds a service with no users yet; cfg supplies the shared
// protocol constants (margins, pickup radius, T0) and defaults for
// AddUser. Register users with AddUser before Start.
func NewService(nw *netstack.Network, cfg Config, fld field.Field, hooks Hooks) *Service {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Service{
		eng:      nw.Engine(),
		nw:       nw,
		cfg:      cfg,
		macCfg:   nw.MACConfig(),
		field:    fld,
		agents:   make(map[radio.NodeID]*agent),
		gateways: make(map[uint32]*Gateway),
		proxies:  make(map[uint32]*netstack.Node),
		hooks:    hookSet{h: hooks},
	}
	for _, id := range nw.NodeIDs() {
		s.agents[id] = newAgent(s, nw.Node(id), true)
	}
	return s
}

// AddUser registers a mobile user: a proxy node (added to the network with
// AddProxy before NewService) issuing one query with the given scheme and
// spec, following course with motion profiles from profiler. QueryIDs must
// be unique. Must be called before Start.
func (s *Service) AddUser(queryID uint32, scheme Scheme, spec QuerySpec, course mobility.Course, profiler mobility.Profiler, proxyID radio.NodeID) {
	if s.started {
		panic("core: AddUser after Start")
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if _, dup := s.gateways[queryID]; dup {
		panic(fmt.Sprintf("core: duplicate query id %d", queryID))
	}
	proxy := s.nw.Node(proxyID)
	if proxy == nil {
		panic(fmt.Sprintf("core: proxy node %d not found", proxyID))
	}
	ag := s.agents[proxyID]
	if ag == nil {
		panic(fmt.Sprintf("core: proxy %d has no agent (added after NewService?)", proxyID))
	}
	ag.isSensor = false
	g := newGateway(s, queryID, scheme, spec, course, profiler, proxy)
	s.gateways[queryID] = g
	s.proxies[queryID] = proxy
	ag.resultSinks[queryID] = g.recordResult
	if len(ag.resultSinks) == 1 {
		proxy.Handle(portResult, func(_ radio.NodeID, body any) {
			if msg, ok := body.(resultMsg); ok {
				if sink := ag.resultSinks[msg.QueryID]; sink != nil {
					sink(msg)
				}
			}
		})
	}
}

// Start launches every registered query session, in ascending query-id
// order: each kickoff schedules events into the shared discrete-event
// engine, whose determinism depends on scheduling order. Must be called
// after the network's Start, at simulation time zero.
func (s *Service) Start() {
	if s.started {
		panic("core: Service started twice")
	}
	if len(s.gateways) == 0 {
		panic("core: Start with no users registered")
	}
	s.started = true

	ids := make([]uint32, 0, len(s.gateways))
	for qid := range s.gateways {
		ids = append(ids, qid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, qid := range ids {
		s.gateways[qid].start()
	}
}

// Results returns the per-period outcomes of the sole user (panics with
// several users; use ResultsFor).
func (s *Service) Results() []PeriodResult {
	if len(s.gateways) != 1 {
		panic("core: Results with multiple users; use ResultsFor")
	}
	for _, g := range s.gateways {
		return g.Results()
	}
	return nil
}

// ResultsFor returns the per-period outcomes of one user's query.
func (s *Service) ResultsFor(queryID uint32) []PeriodResult {
	g := s.gateways[queryID]
	if g == nil {
		return nil
	}
	return g.Results()
}

// LiveTrees returns how many query trees node id currently stores.
func (s *Service) LiveTrees(id radio.NodeID) int {
	ag := s.agents[id]
	if ag == nil {
		return 0
	}
	return ag.liveTrees()
}

// sleepPeriod exposes the PSM sleep period for the equation (10) hold rule.
func (s *Service) sleepPeriod() time.Duration { return s.macCfg.SleepPeriod }
