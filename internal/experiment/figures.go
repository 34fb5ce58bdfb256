package experiment

import (
	"fmt"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/metrics"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

// Options controls figure reproduction cost/fidelity.
type Options struct {
	// Runs is the number of topologies averaged per data point (the paper
	// uses 3 for Figure 4 and 5 elsewhere).
	Runs int
	// BaseSeed seeds the first run; replicas use consecutive seeds.
	BaseSeed int64
	// Scale shrinks run durations for quick smoke benches: 1 reproduces
	// the paper's durations, 0.25 runs quarter-length sessions.
	Scale float64
}

// duration scales a paper run length, keeping at least 60 seconds.
func (o Options) duration(d time.Duration) time.Duration {
	if o.Scale <= 0 || o.Scale >= 1 {
		return d
	}
	scaled := time.Duration(float64(d) * o.Scale)
	if scaled < 60*time.Second {
		scaled = 60 * time.Second
	}
	return scaled
}

func (o Options) runs(paper int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	return paper
}

// Fig4 reproduces Figure 4: success ratio for MQ-JIT, MQ-GP and NP across
// sleep periods (3-15 s) and user speed ranges (walking, running, vehicle),
// with accurate full-path motion profiles.
func Fig4(opts Options) []Table {
	sleeps := []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second, 12 * time.Second, 15 * time.Second}
	speeds := []struct {
		label    string
		min, max float64
	}{
		{"3-5 m/s (walking)", 3, 5},
		{"6-10 m/s (running)", 6, 10},
		{"16-20 m/s (vehicle)", 16, 20},
	}
	schemes := []core.Scheme{core.SchemeJIT, core.SchemeGP, core.SchemeNP}
	runs := opts.runs(3)

	tables := make([]Table, 0, len(speeds))
	for _, sp := range speeds {
		tbl := Table{
			ID:      "Figure 4",
			Title:   fmt.Sprintf("success ratio, user speed %s", sp.label),
			Columns: []string{"sleep(s)", "MQ-JIT", "MQ-GP", "NP"},
		}
		for _, sleep := range sleeps {
			row := Row{Label: fmt.Sprintf("%.0f", sleep.Seconds())}
			for _, scheme := range schemes {
				base := Default().WithDuration(opts.duration(400 * time.Second))
				base.SleepPeriod = sleep
				base.Scheme = scheme
				base.SpeedMin, base.SpeedMax = sp.min, sp.max
				rs := RunMany(Replicate(base, opts.BaseSeed, runs))
				mean, _ := metrics.MeanCI95(SuccessRatios(rs))
				row.Cells = append(row.Cells, Cell{Value: mean})
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		tables = append(tables, tbl)
	}
	return tables
}

// Fig5 reproduces Figure 5: per-period data fidelity of MQ-JIT and MQ-GP
// over a 400 s session at 15 s sleep period (the dynamic-behaviour plot).
func Fig5(opts Options) Table {
	tbl := Table{
		ID:      "Figure 5",
		Title:   "data fidelity per query period (sleep 15 s, walking user)",
		Columns: []string{"period", "MQ-GP", "MQ-JIT"},
	}
	run := func(scheme core.Scheme) []metrics.QueryRecord {
		sc := Default().WithDuration(opts.duration(400 * time.Second))
		sc.Scheme = scheme
		sc.Seed = opts.BaseSeed
		return Run(sc).Records
	}
	gp := run(core.SchemeGP)
	jit := run(core.SchemeJIT)
	n := len(gp)
	if len(jit) < n {
		n = len(jit)
	}
	for i := 0; i < n; i++ {
		tbl.Rows = append(tbl.Rows, Row{
			Label: fmt.Sprintf("%d", gp[i].K),
			Cells: []Cell{{Value: gp[i].Fidelity}, {Value: jit[i].Fidelity}},
		})
	}
	return tbl
}

// Fig6 reproduces Figure 6: MQ-JIT success ratio versus the motion-profile
// advance time Ta, for sleep periods 3/9/15 s. Motion changes every 70 s
// over 500 s sessions; 5 runs with 95% CIs.
func Fig6(opts Options) Table {
	tas := []time.Duration{-6 * time.Second, 0, 6 * time.Second, 12 * time.Second, 18 * time.Second}
	sleeps := []time.Duration{3 * time.Second, 9 * time.Second, 15 * time.Second}
	runs := opts.runs(5)
	tbl := Table{
		ID:      "Figure 6",
		Title:   "MQ-JIT success ratio vs advance time (motion change every 70 s)",
		Columns: []string{"Ta(s)", "sleep 3s", "sleep 9s", "sleep 15s"},
	}
	for _, ta := range tas {
		row := Row{Label: fmt.Sprintf("%.0f", ta.Seconds())}
		for _, sleep := range sleeps {
			base := Default().WithDuration(opts.duration(500 * time.Second))
			base.SleepPeriod = sleep
			base.ChangeInterval = 70 * time.Second
			base.Profiler = ProfilerExact
			base.AdvanceTime = ta
			rs := RunMany(Replicate(base, opts.BaseSeed, runs))
			mean, ci := metrics.MeanCI95(SuccessRatios(rs))
			row.Cells = append(row.Cells, Cell{Value: mean, CI: ci, HasCI: true})
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// Fig7 reproduces Figure 7: MQ-JIT success ratio versus the interval
// between motion changes, for advance times 6/0/-8 s and for the GPS
// predictor with 5 m and 10 m location errors (sleep period 9 s). It
// returns two tables over the same runs: success under the strict
// true-area fidelity and under the targeted-area fidelity.
func Fig7(opts Options) []Table {
	intervals := []time.Duration{42 * time.Second, 52 * time.Second, 70 * time.Second, 105 * time.Second, 210 * time.Second}
	settings := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"Ta=6s", func(s *Scenario) { s.Profiler = ProfilerExact; s.AdvanceTime = 6 * time.Second }},
		{"Ta=0s", func(s *Scenario) { s.Profiler = ProfilerExact; s.AdvanceTime = 0 }},
		{"Ta=-8s", func(s *Scenario) { s.Profiler = ProfilerExact; s.AdvanceTime = -8 * time.Second }},
		{"Ta=-8s err=5m", func(s *Scenario) { s.Profiler = ProfilerGPS; s.GPSError = 5 }},
		{"Ta=-8s err=10m", func(s *Scenario) { s.Profiler = ProfilerGPS; s.GPSError = 10 }},
	}
	runs := opts.runs(5)
	cols := []string{"interval(s)"}
	for _, st := range settings {
		cols = append(cols, st.label)
	}
	strict := Table{
		ID:      "Figure 7",
		Title:   "MQ-JIT success ratio vs motion-change interval (sleep 9 s), true-area fidelity",
		Columns: cols,
		Notes:   "fidelity scored against the area around the user's true position",
	}
	target := Table{
		ID:      "Figure 7 (targeted-area reading)",
		Title:   "same runs, fidelity scored against the area each result targeted",
		Columns: cols,
		Notes:   "the paper's fidelity definition is ambiguous between the two readings; its curves match this one",
	}
	for _, iv := range intervals {
		strictRow := Row{Label: fmt.Sprintf("%.0f", iv.Seconds())}
		targetRow := Row{Label: strictRow.Label}
		for _, st := range settings {
			base := Default().WithDuration(opts.duration(500 * time.Second))
			base.SleepPeriod = 9 * time.Second
			base.ChangeInterval = iv
			st.mut(&base)
			rs := RunMany(Replicate(base, opts.BaseSeed, runs))
			mean, ci := metrics.MeanCI95(SuccessRatios(rs))
			strictRow.Cells = append(strictRow.Cells, Cell{Value: mean, CI: ci, HasCI: true})
			tmean, tci := metrics.MeanCI95(TargetSuccessRatios(rs))
			targetRow.Cells = append(targetRow.Cells, Cell{Value: tmean, CI: tci, HasCI: true})
		}
		strict.Rows = append(strict.Rows, strictRow)
		target.Rows = append(target.Rows, targetRow)
	}
	return []Table{strict, target}
}

// Fig8 reproduces Figure 8: average power per sleeping node for bare CCP,
// MQ-JIT with Ta=-3 s, and MQ-JIT with Ta=9 s, across sleep periods.
func Fig8(opts Options) Table {
	sleeps := []time.Duration{3 * time.Second, 9 * time.Second, 15 * time.Second}
	settings := []struct {
		label string
		mut   func(*Scenario)
	}{
		{"CCP", func(s *Scenario) { s.Idle = true }},
		{"MQ-JIT Ta=-3s", func(s *Scenario) { s.Profiler = ProfilerExact; s.AdvanceTime = -3 * time.Second }},
		{"MQ-JIT Ta=9s", func(s *Scenario) { s.Profiler = ProfilerExact; s.AdvanceTime = 9 * time.Second }},
	}
	runs := opts.runs(5)
	tbl := Table{
		ID:      "Figure 8",
		Title:   "average power per sleeping node (W), motion change every 70 s",
		Columns: []string{"sleep(s)"},
	}
	for _, st := range settings {
		tbl.Columns = append(tbl.Columns, st.label)
	}
	for _, sleep := range sleeps {
		row := Row{Label: fmt.Sprintf("%.0f", sleep.Seconds())}
		for _, st := range settings {
			base := Default().WithDuration(opts.duration(400 * time.Second))
			base.SleepPeriod = sleep
			base.ChangeInterval = 70 * time.Second
			st.mut(&base)
			rs := RunMany(Replicate(base, opts.BaseSeed, runs))
			mean, _ := metrics.MeanCI95(SleeperPowers(rs))
			row.Cells = append(row.Cells, Cell{Value: mean})
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// WarmupValidation cross-checks the equation (16) warmup bound against the
// simulator: for each advance time it measures the mean number of
// consecutive sub-threshold periods after each motion change and prints it
// next to the analytical bound.
func WarmupValidation(opts Options) Table {
	tas := []time.Duration{-8 * time.Second, -3 * time.Second, 0, 6 * time.Second, 12 * time.Second}
	tbl := Table{
		ID:      "Warmup (eq. 16)",
		Title:   "measured warmup periods after motion changes vs analytical bound (sleep 9 s)",
		Columns: []string{"Ta(s)", "measured", "bound"},
	}
	for _, ta := range tas {
		base := Default().WithDuration(opts.duration(500 * time.Second))
		base.SleepPeriod = 9 * time.Second
		base.ChangeInterval = 70 * time.Second
		base.Profiler = ProfilerExact
		base.AdvanceTime = ta
		base.Seed = opts.BaseSeed
		res := Run(base)

		course := reconstructCourse(base)
		t0 := queryStart(sim.NewEngine(base.Seed), base)
		measured := MeasureWarmup(res.Records, course.Changes, base.Spec.Period, t0)
		bound := float64(base.SleepPeriod+2*base.Spec.Fresh-ta) / float64(base.Spec.Period)
		if bound < 0 {
			bound = 0
		}
		tbl.Rows = append(tbl.Rows, Row{
			Label: fmt.Sprintf("%.0f", ta.Seconds()),
			Cells: []Cell{{Value: measured}, {Value: bound}},
		})
	}
	tbl.Notes = "bound is the vprfh>>vuser approximation Tw ~ (Tsleep + 2*Tfresh - Ta)/Tperiod"
	return tbl
}

// reconstructCourse rebuilds the deterministic course used by a scenario:
// named RNG streams depend only on (seed, name), so the course can be
// regenerated without re-running the simulation.
func reconstructCourse(sc Scenario) mobility.Course {
	eng := sim.NewEngine(sc.Seed)
	return mobility.NewRandomCourse(mobility.CourseSpec{
		Region:         geom.Square(sc.RegionSide),
		Start:          geom.Pt(0, 0),
		SpeedMin:       sc.SpeedMin,
		SpeedMax:       sc.SpeedMax,
		ChangeInterval: sc.ChangeInterval,
		Duration:       sc.Duration,
	}, eng.RNG("course"))
}

// MeasureWarmup returns the mean number of consecutive failed periods
// immediately following each motion change.
func MeasureWarmup(records []metrics.QueryRecord, changes []sim.Time, period time.Duration, t0 sim.Time) float64 {
	if len(changes) == 0 || len(records) == 0 {
		return 0
	}
	byK := make(map[int]metrics.QueryRecord, len(records))
	for _, r := range records {
		byK[r.K] = r
	}
	total, counted := 0.0, 0
	for _, ch := range changes {
		// First deadline at or after the change; allow the streak to start
		// up to two periods later (the period spanning the change may have
		// completed collection before the divergence mattered).
		k := int((ch-t0)/sim.Time(period)) + 1
		start := -1
		for off := 0; off < 2; off++ {
			if r, ok := byK[k+off]; ok && !r.Success {
				start = k + off
				break
			}
		}
		streak := 0
		if start >= 0 {
			for {
				r, ok := byK[start+streak]
				if !ok || r.Success {
					break
				}
				streak++
			}
		}
		if _, ok := byK[k]; ok {
			total += float64(streak)
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
