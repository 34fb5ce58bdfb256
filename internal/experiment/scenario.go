// Package experiment assembles full MobiQuery simulations from scenario
// descriptions and reproduces every table and figure of the paper's
// evaluation. Individual runs are deterministic in the scenario seed;
// sweeps fan out across CPU cores.
package experiment

import (
	"fmt"
	"time"

	"mobiquery/internal/ccp"
	"mobiquery/internal/core"
	"mobiquery/internal/deploy"
	"mobiquery/internal/energy"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mac"
	"mobiquery/internal/metrics"
	"mobiquery/internal/mobility"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// ProfilerKind selects how motion profiles are generated (Section 6).
type ProfilerKind int

const (
	// ProfilerOracle delivers the exact full-course profile at time zero
	// (Section 6.2, "accurate motion profiles").
	ProfilerOracle ProfilerKind = iota + 1
	// ProfilerExact delivers an exact per-leg profile Ta before each motion
	// change (Section 6.3 advance-time experiments).
	ProfilerExact
	// ProfilerGPS estimates each leg from two noisy GPS fixes taken
	// gpsSampling apart (Section 6.3 location-error experiments).
	ProfilerGPS
)

// gpsSampling is ProfilerGPS's fix interval.
const gpsSampling = 8 * time.Second

// Scenario fully describes one simulation run. The zero value is not
// runnable; start from Default.
type Scenario struct {
	Seed int64

	// Deployment.
	Nodes      int
	RegionSide float64

	// Radio/MAC. The radio is radio.DefaultParams' (2 Mbps, Rc = 105 m),
	// the coverage backbone ccp.DefaultConfig's (Rs = 50 m).
	ActiveWindow time.Duration
	SleepPeriod  time.Duration

	// Query.
	Scheme core.Scheme
	Spec   core.QuerySpec

	// User motion.
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration

	// Motion profiles.
	Profiler    ProfilerKind
	AdvanceTime time.Duration // Ta for ProfilerExact
	GPSError    float64       // max location error for ProfilerGPS

	// Field sampled by the sensors.
	Field field.Field

	// Idle suppresses the query service entirely: the network runs only
	// CCP + PSM. Used for the Figure 8 power baseline.
	Idle bool

	// Ablation switches (see DESIGN.md "Engineering decisions"): disable
	// the flood rebroadcast jitter or the equation (10) forward lead to
	// measure their contribution.
	DisableFloodJitter bool
	DisableForwardLead bool
}

// Default returns the paper's Section 6.1 experimental settings: 200 nodes
// in 450x450 m, 100 ms active window, Rq=150 m, Tperiod=2 s, Tfresh=1 s,
// 2 Mbps radios with 105 m range, a walking user (3-5 m/s) changing course
// every 50 s for 400 s, and an oracle profile.
func Default() Scenario {
	duration := 400 * time.Second
	return Scenario{
		Seed:         1,
		Nodes:        200,
		RegionSide:   450,
		ActiveWindow: 100 * time.Millisecond,
		SleepPeriod:  15 * time.Second,
		Scheme:       core.SchemeJIT,
		Spec: core.QuerySpec{
			Agg:      core.AggAvg,
			Radius:   150,
			Period:   2 * time.Second,
			Fresh:    time.Second,
			Lifetime: duration - 4*time.Second,
		},
		SpeedMin:       3,
		SpeedMax:       5,
		ChangeInterval: 50 * time.Second,
		Duration:       duration,
		Profiler:       ProfilerOracle,
		Field:          field.Uniform{Value: 20},
	}
}

// WithDuration returns a copy of s with the run duration (and query
// lifetime) adjusted consistently.
func (s Scenario) WithDuration(d time.Duration) Scenario {
	s.Duration = d
	s.Spec.Lifetime = d - 4*time.Second
	return s
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("experiment: Nodes must be positive")
	case s.RegionSide <= 0:
		return fmt.Errorf("experiment: RegionSide must be positive")
	case s.Duration <= 0:
		return fmt.Errorf("experiment: Duration must be positive")
	case s.Profiler < ProfilerOracle || s.Profiler > ProfilerGPS:
		return fmt.Errorf("experiment: unknown profiler kind %d", s.Profiler)
	case s.Field == nil:
		return fmt.Errorf("experiment: Field must be set")
	}
	return s.Spec.Validate()
}

// RunResult holds everything measured in one run.
type RunResult struct {
	Scenario Scenario

	Records      []metrics.QueryRecord
	SuccessRatio float64
	// TargetSuccessRatio scores each result against the area it targeted
	// instead of the user's true area; the two coincide under exact motion
	// profiles (see metrics.QueryRecord.TargetFidelity).
	TargetSuccessRatio float64
	MeanFidelity       float64

	// Power, in watts, averaged per node over the run.
	PowerSleeper  float64
	PowerBackbone float64

	// Storage metrics (Section 5.2).
	MaxPrefetchLength int
	TreeSetups        int

	BackboneNodes int
	MediumStats   radio.Stats
	EventsFired   uint64
}

// queryStart draws the query issue time's phase relative to the PSM
// schedule from the run's deterministic "t0" stream. It must be derived
// identically wherever a scenario's timeline is reconstructed.
func queryStart(eng *sim.Engine, sc Scenario) sim.Time {
	return 200*time.Millisecond + time.Duration(eng.RNG("t0").Int63n(int64(sc.Spec.Period)))
}

// buildNetwork deploys sc's sensors over region, selects the CCP coverage
// backbone and adds every sensor to a new network: always-on on the
// backbone, duty-cycled off it. Run and RunMulti build their networks here.
func buildNetwork(eng *sim.Engine, sc Scenario, region geom.Rect) (deploy.Topology, ccp.Result, *netstack.Network) {
	topo := deploy.Uniform(region, sc.Nodes, eng.RNG("deploy"))
	sel := ccp.Select(region, topo.Positions, ccp.DefaultConfig(), eng.RNG("ccp"))

	macCfg := mac.DefaultConfig(sc.SleepPeriod)
	macCfg.ActiveWindow = sc.ActiveWindow
	nw := netstack.NewNetwork(eng, region, radio.DefaultParams(), macCfg)
	if sc.DisableFloodJitter {
		nw.SetFloodJitter(0)
	}
	for i, p := range topo.Positions {
		role := mac.RoleDutyCycled
		if sel.Active[i] {
			role = mac.RoleAlwaysOn
		}
		nw.AddNode(radio.NodeID(i), p, role)
	}
	return topo, sel, nw
}

// Run executes one scenario to completion and evaluates it.
func Run(sc Scenario) RunResult {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(sc.Seed)
	region := geom.Square(sc.RegionSide)
	topo, sel, nw := buildNetwork(eng, sc, region)

	course := mobility.NewRandomCourse(mobility.CourseSpec{
		Region:         region,
		Start:          geom.Pt(0, 0), // the user starts from a corner (Sec 6.2)
		SpeedMin:       sc.SpeedMin,
		SpeedMax:       sc.SpeedMax,
		ChangeInterval: sc.ChangeInterval,
		Duration:       sc.Duration,
	}, eng.RNG("course"))
	proxyID := radio.NodeID(sc.Nodes)
	nw.AddProxy(proxyID, course.PosAt(0))

	var profiler mobility.Profiler
	switch sc.Profiler {
	case ProfilerOracle:
		profiler = mobility.OracleProfiler{Course: course}
	case ProfilerExact:
		profiler = mobility.ExactProfiler{Course: course, Ta: sc.AdvanceTime}
	case ProfilerGPS:
		profiler = mobility.GPSPredictor{
			Course:   course,
			Sampling: gpsSampling,
			Err:      sc.GPSError,
			RNG:      eng.RNG("gps"),
		}
	}

	coreCfg := core.DefaultConfig(sc.Spec)
	coreCfg.Scheme = sc.Scheme
	// The query's issue time is arbitrary relative to the synchronized PSM
	// schedule; draw the phase per run. A fixed phase resonates when the
	// sleep period is a multiple of the query period (NP's recruit windows
	// then always miss the sampling interval).
	coreCfg.T0 = queryStart(eng, sc)
	if sc.DisableForwardLead {
		coreCfg.ForwardLead = 0
	}
	backboneFrac := float64(sel.NumActive) / float64(sc.Nodes)
	rp := deploy.SuggestPickupRadius(topo, backboneFrac, 0.9)
	if rp < 25 {
		rp = 25
	}
	if rp > 60 {
		rp = 60
	}
	coreCfg.PickupRadius = rp

	tracker := metrics.NewStorageTracker(coreCfg.T0, sc.Spec.Period)
	hooks := core.Hooks{OnTreeUp: tracker.Add}
	var svc *core.Service
	if !sc.Idle {
		svc = core.New(nw, coreCfg, sc.Field, course, profiler, proxyID, hooks)
	}

	nw.Start()
	if svc != nil {
		svc.Start()
	}
	eng.Run(sc.Duration + 2*time.Second)

	var results []core.PeriodResult
	if svc != nil {
		results = svc.Results()
	}
	res := RunResult{
		Scenario:          sc,
		Records:           metrics.EvaluateAgg(results, course, region, topo.Positions, sc.Spec.Radius, sc.Spec.Agg),
		MaxPrefetchLength: tracker.MaxPrefetchLength(),
		TreeSetups:        tracker.Setups(),
		BackboneNodes:     sel.NumActive,
		MediumStats:       nw.Medium().Stats(),
		EventsFired:       eng.EventsFired(),
	}
	res.SuccessRatio = metrics.SuccessRatio(res.Records)
	res.TargetSuccessRatio = metrics.TargetSuccessRatio(res.Records)
	res.MeanFidelity = metrics.MeanFidelity(res.Records)

	var sleepers, backbone []energy.Report
	for i := range topo.Positions {
		rep := nw.Node(radio.NodeID(i)).Meter().Snapshot()
		if sel.Active[i] {
			backbone = append(backbone, rep)
		} else {
			sleepers = append(sleepers, rep)
		}
	}
	res.PowerSleeper = energy.Aggregate(sleepers).AveragePower
	res.PowerBackbone = energy.Aggregate(backbone).AveragePower
	return res
}
