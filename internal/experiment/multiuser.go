package experiment

import (
	"fmt"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/metrics"
	"mobiquery/internal/mobility"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// UserSpec describes one mobile user of a multi-user run: a straight-line
// course from Start at Velocity (m/s) with an exact motion profile, issuing
// its own query under the given scheme.
type UserSpec struct {
	QueryID  uint32
	Scheme   core.Scheme
	Start    geom.Point
	Velocity geom.Vec
}

// RunMulti executes one scenario with several concurrent mobile users
// sharing the sensor network, and returns one evaluated result per user (in
// input order). The scenario's own motion fields are ignored; each user
// follows its UserSpec course.
func RunMulti(sc Scenario, users []UserSpec) []RunResult {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	if len(users) == 0 {
		panic("experiment: RunMulti needs at least one user")
	}
	eng := sim.NewEngine(sc.Seed)
	region := geom.Square(sc.RegionSide)
	topo, sel, nw := buildNetwork(eng, sc, region)

	courses := make([]mobility.Course, len(users))
	proxies := make([]radio.NodeID, len(users))
	for i, u := range users {
		courses[i] = mobility.Course{
			Trajectory: mobility.LinearPath(u.Start, u.Velocity, 0, sc.Duration),
		}
		proxies[i] = radio.NodeID(sc.Nodes + i)
		nw.AddProxy(proxies[i], u.Start)
	}

	coreCfg := core.DefaultConfig(sc.Spec)
	coreCfg.T0 = queryStart(eng, sc)
	svc := core.NewService(nw, coreCfg, sc.Field, core.Hooks{})
	seen := make(map[uint32]bool, len(users))
	for i, u := range users {
		if u.QueryID == 0 || seen[u.QueryID] {
			panic(fmt.Sprintf("experiment: user %d needs a unique non-zero QueryID", i))
		}
		seen[u.QueryID] = true
		svc.AddUser(u.QueryID, u.Scheme, sc.Spec, courses[i],
			mobility.OracleProfiler{Course: courses[i]}, proxies[i])
	}

	nw.Start()
	svc.Start()
	eng.Run(sc.Duration + 2*time.Second)

	out := make([]RunResult, len(users))
	for i, u := range users {
		res := RunResult{
			Scenario:      sc,
			Records:       metrics.EvaluateAgg(svc.ResultsFor(u.QueryID), courses[i], region, topo.Positions, sc.Spec.Radius, sc.Spec.Agg),
			BackboneNodes: sel.NumActive,
			MediumStats:   nw.Medium().Stats(),
			EventsFired:   eng.EventsFired(),
		}
		res.SuccessRatio = metrics.SuccessRatio(res.Records)
		res.TargetSuccessRatio = metrics.TargetSuccessRatio(res.Records)
		res.MeanFidelity = metrics.MeanFidelity(res.Records)
		out[i] = res
	}
	return out
}
