package mobiquery

import (
	"fmt"

	"mobiquery/internal/experiment"
	"mobiquery/internal/geom"
)

// This file is the batch compatibility surface: the pre-session one-shot
// entry points, kept byte-identical for existing callers. Each panicking
// function is a one-line wrapper over its error-returning variant.

// convertRunResult maps an internal run result onto the public Result.
func convertRunResult(rr experiment.RunResult) Result {
	out := Result{
		SuccessRatio:         rr.SuccessRatio,
		MeanFidelity:         rr.MeanFidelity,
		PowerPerSleepingNode: rr.PowerSleeper,
		PowerPerBackboneNode: rr.PowerBackbone,
		MaxPrefetchLength:    rr.MaxPrefetchLength,
		BackboneNodes:        rr.BackboneNodes,
		Queries:              make([]QueryResult, 0, len(rr.Records)),
	}
	for _, r := range rr.Records {
		out.Queries = append(out.Queries, QueryResult{
			K:            r.K,
			Deadline:     r.Deadline,
			Received:     r.Received,
			OnTime:       r.OnTime,
			Value:        r.Value,
			Contributors: r.Contributors,
			AreaNodes:    r.AreaNodes,
			Fidelity:     r.Fidelity,
			Success:      r.Success,
		})
	}
	return out
}

// RunE executes the simulation to completion through the discrete-event
// stack, reporting configuration errors instead of panicking.
func RunE(s Simulation) (Result, error) {
	sc := s.scenario()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	return convertRunResult(experiment.Run(sc)), nil
}

// Run executes the simulation to completion. It panics on invalid
// configuration; RunE is the error-returning variant.
func Run(s Simulation) Result {
	res, err := RunE(s)
	if err != nil {
		panic(err)
	}
	return res
}

// RunTeamE runs base's network with several concurrent mobile users and
// returns one Result per member, in order, reporting configuration errors
// instead of panicking. The members share the sensor network, so their
// query traffic contends: the paper's storage and contention analysis
// (Section 5) is about exactly this load.
func RunTeamE(base Simulation, members []TeamMember) ([]Result, error) {
	sc := base.scenario()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("mobiquery: team needs at least one member")
	}
	users := make([]experiment.UserSpec, len(members))
	seen := make(map[uint32]bool, len(members))
	for i, m := range members {
		if m.QueryID == 0 || seen[m.QueryID] {
			return nil, fmt.Errorf("mobiquery: member %d needs a unique non-zero QueryID", i)
		}
		seen[m.QueryID] = true
		users[i] = experiment.UserSpec{
			QueryID:  m.QueryID,
			Scheme:   m.Scheme,
			Start:    m.Start,
			Velocity: geom.V(m.VelocityX, m.VelocityY),
		}
	}
	rrs := experiment.RunMulti(sc, users)
	out := make([]Result, len(rrs))
	for i, rr := range rrs {
		out[i] = convertRunResult(rr)
	}
	return out, nil
}

// RunTeam runs base's network with several concurrent mobile users and
// returns one Result per member, in order. It panics on invalid
// configuration; RunTeamE is the error-returning variant.
func RunTeam(base Simulation, members []TeamMember) []Result {
	res, err := RunTeamE(base, members)
	if err != nil {
		panic(err)
	}
	return res
}
