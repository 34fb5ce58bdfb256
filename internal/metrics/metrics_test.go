package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

func sec(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

func evalFixture() ([]core.PeriodResult, mobility.Course, []geom.Point) {
	course := mobility.Course{Trajectory: mobility.Stationary(geom.Pt(100, 100), 0)}
	positions := []geom.Point{
		geom.Pt(100, 100), // 0: in area
		geom.Pt(150, 100), // 1: in area
		geom.Pt(100, 160), // 2: in area
		geom.Pt(400, 400), // 3: far outside
	}
	mk := func(k int, contribs []radio.NodeID, onTime bool) core.PeriodResult {
		p := core.NewPartial()
		for range contribs {
			p.Add(1)
		}
		return core.PeriodResult{
			K: k, Deadline: sec(float64(2 * k)), Received: true,
			Arrival: sec(float64(2*k) - 0.05), OnTime: onTime, Data: p, Contribs: contribs,
		}
	}
	results := []core.PeriodResult{
		mk(1, []radio.NodeID{0, 1, 2}, true),    // full fidelity
		mk(2, []radio.NodeID{0, 1}, true),       // 2/3
		mk(3, []radio.NodeID{0, 1, 2, 3}, true), // outside contributor ignored
		mk(4, []radio.NodeID{0}, false),         // late
		{K: 5, Deadline: sec(10)},               // missing
	}
	return results, course, positions
}

func TestEvaluate(t *testing.T) {
	results, course, positions := evalFixture()
	recs := EvaluateAgg(results, course, geom.Square(450), positions, 170, core.AggAvg)
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Fidelity != 1 || !recs[0].Success {
		t.Errorf("rec 1 = %+v", recs[0])
	}
	if math.Abs(recs[1].Fidelity-2.0/3) > 1e-12 || recs[1].Success {
		t.Errorf("rec 2 fidelity = %v", recs[1].Fidelity)
	}
	if len(recs[1].Missing) != 1 || recs[1].Missing[0] != 2 {
		t.Errorf("rec 2 missing = %v", recs[1].Missing)
	}
	if recs[2].Fidelity != 1 || recs[2].Contributors != 3 {
		t.Errorf("rec 3: out-of-area contributor should not count: %+v", recs[2])
	}
	if recs[3].Success || !recs[3].Received {
		t.Errorf("late result must not succeed: %+v", recs[3])
	}
	if recs[4].Received || recs[4].Fidelity != 0 || recs[4].Success {
		t.Errorf("missing result: %+v", recs[4])
	}
	if recs[0].AreaNodes != 3 {
		t.Errorf("area nodes = %d, want 3", recs[0].AreaNodes)
	}

	// A seeded 500-sensor field and a course that walks out of the region:
	// area nodes, missing nodes and target fidelity must equal a brute-force
	// scan of the positions, out-of-range contributor ids ignored.
	rng := rand.New(rand.NewSource(29))
	region := geom.Square(450)
	field := make([]geom.Point, 500)
	for i := range field {
		field[i] = region.UniformPoint(rng)
	}
	walk := mobility.Course{Trajectory: mobility.LinearPath(geom.Pt(300, 200), geom.V(10, 3), 0, sec(60))}
	const rq = 150
	var rs []core.PeriodResult
	for k := 1; k <= 30; k++ {
		pr := core.PeriodResult{K: k, Deadline: sec(float64(2 * k)), Received: k%7 != 0, OnTime: true}
		pr.Arrival = pr.Deadline
		pr.Pickup = walk.PosAt(pr.Deadline).Add(geom.V(rng.Float64()*40-20, rng.Float64()*40-20))
		for id := range field {
			if rng.Intn(10) < 7 {
				pr.Contribs = append(pr.Contribs, radio.NodeID(id))
			}
		}
		pr.Contribs = append(pr.Contribs, -1, radio.NodeID(len(field)))
		pr.Data = core.NewPartial()
		for range pr.Contribs {
			pr.Data.Add(1)
		}
		rs = append(rs, pr)
	}
	recs = EvaluateAgg(rs, walk, region, field, rq, core.AggAvg)
	for i, rec := range recs {
		pr := rs[i]
		contributed := map[radio.NodeID]bool{}
		for _, id := range pr.Contribs {
			contributed[id] = true
		}
		area, target, hits := 0, 0, 0
		var missing []radio.NodeID
		for id, pos := range field {
			nid := radio.NodeID(id)
			if pos.Dist2(walk.PosAt(pr.Deadline)) <= rq*rq {
				area++
				if !pr.Received || !contributed[nid] {
					missing = append(missing, nid)
				}
			}
			if pos.Dist2(pr.Pickup) <= rq*rq {
				target++
				if contributed[nid] {
					hits++
				}
			}
		}
		wantTarget := 0.0
		if pr.Received {
			wantTarget = 1
			if target > 0 {
				wantTarget = float64(hits) / float64(target)
			}
		}
		if rec.AreaNodes != area || !slices.Equal(rec.Missing, missing) || rec.TargetFidelity != wantTarget {
			t.Fatalf("random field k=%d: area %d missing %v target %v, brute force %d %v %v",
				pr.K, rec.AreaNodes, rec.Missing, rec.TargetFidelity, area, missing, wantTarget)
		}
	}
	if last := recs[len(recs)-1]; last.AreaNodes != 0 {
		t.Errorf("course should end outside the field, last period has %d area nodes", last.AreaNodes)
	}
}

func TestEvaluateDedupContributors(t *testing.T) {
	course := mobility.Course{Trajectory: mobility.Stationary(geom.Pt(0, 0), 0)}
	positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	p := core.NewPartial()
	p.Add(1)
	p.Add(2)
	results := []core.PeriodResult{{
		K: 1, Deadline: sec(2), Received: true, Arrival: sec(1.9), OnTime: true, Data: p,
		Contribs: []radio.NodeID{0, 0}, // duplicate contributor
	}}
	recs := EvaluateAgg(results, course, geom.Square(450), positions, 50, core.AggAvg)
	if recs[0].Contributors != 1 {
		t.Errorf("duplicate contributor counted twice: %d", recs[0].Contributors)
	}
}

func TestEvaluateEmptyArea(t *testing.T) {
	course := mobility.Course{Trajectory: mobility.Stationary(geom.Pt(0, 0), 0)}
	results := []core.PeriodResult{{K: 1, Deadline: sec(2), Received: true, OnTime: true, Arrival: sec(2)}}
	recs := EvaluateAgg(results, course, geom.Square(450), nil, 150, core.AggAvg)
	if recs[0].Fidelity != 1 {
		t.Errorf("empty area fidelity = %v, want vacuous 1", recs[0].Fidelity)
	}
}

func TestSuccessRatioAndMeanFidelity(t *testing.T) {
	recs := []QueryRecord{
		{Success: true, Fidelity: 1},
		{Success: false, Fidelity: 0.5},
		{Success: true, Fidelity: 0.96},
		{Success: false, Fidelity: 0},
	}
	if got := SuccessRatio(recs); got != 0.5 {
		t.Errorf("SuccessRatio = %v", got)
	}
	if got := MeanFidelity(recs); math.Abs(got-0.615) > 1e-12 {
		t.Errorf("MeanFidelity = %v", got)
	}
	if SuccessRatio(nil) != 0 || MeanFidelity(nil) != 0 {
		t.Error("empty inputs should give 0")
	}
}

func TestMeanCI95(t *testing.T) {
	mean, ci := MeanCI95([]float64{1, 1, 1, 1, 1})
	if mean != 1 || ci != 0 {
		t.Errorf("constant sample: mean=%v ci=%v", mean, ci)
	}
	mean, ci = MeanCI95([]float64{0.9, 1.0, 1.1})
	if math.Abs(mean-1.0) > 1e-12 {
		t.Errorf("mean = %v", mean)
	}
	// sd = 0.1, t(0.975,2) = 4.303: ci = 4.303*0.1/sqrt(3) ~ 0.2484.
	if math.Abs(ci-0.2484) > 1e-3 {
		t.Errorf("ci = %v, want ~0.248", ci)
	}
	if _, ci = MeanCI95([]float64{5}); ci != 0 {
		t.Error("single sample should give 0 CI")
	}
	// Large samples fall back to the normal quantile.
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if _, ci = MeanCI95(xs); ci <= 0 {
		t.Error("large-sample CI should be positive")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestStorageTracker(t *testing.T) {
	st := NewStorageTracker(sec(0.5), 2*time.Second)
	// At t=1s the user is in period 0; trees for k=3 and k=4 go up.
	st.Add(10, 3, sec(1))
	st.Add(10, 4, sec(1))
	st.Add(11, 3, sec(1))
	if got := st.MaxPrefetchLength(); got != 4 {
		t.Errorf("MaxPrefetchLength = %d, want 4", got)
	}
	if got := st.Setups(); got != 3 {
		t.Errorf("Setups = %d", got)
	}
}
