package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// PyramidConfig describes the aggregate-pyramid comparison: a population of
// mobile users running large-radius on-demand aggregate queries over a
// dense sensor field, evaluated twice with identical workloads — once by
// flat area scans, once with the hierarchical tile pyramid answering each
// boundary from covered coarse tiles plus a disk-tested fringe — and then
// both again with a lookback Window, whose every result merges the last
// Window boundaries. The pyramid arms must reproduce the flat arms' digests
// exactly; the ledger reports what the decomposition saved.
//
// Radius is deliberately large: tile decomposition pays off when the disk
// spans many index cells. The default Field is QuantizedField, under which
// every partial sum is exactly representable and the flat-vs-pyramid digest
// comparison is bitwise rather than approximate.
type PyramidConfig struct {
	Base
	Courses

	// Window is the lookback depth of the windowed arms (≥ 2).
	Window int
}

// QuantizedField returns a deterministic position- and time-dependent field
// whose values are multiples of 1/64 with bounded magnitude. Sums of such
// values are exactly representable in float64, so float addition over them
// is associative: folds that differ only in grouping (the flat scan's
// canonical grid order vs the pyramid's tile-major order) produce
// bit-identical sums, which lets digest comparisons demand exact equality.
func QuantizedField() field.Field {
	return field.Func(func(p geom.Point, t sim.Time) float64 {
		q := math.Floor(p.X/16+p.Y/32) + math.Floor(float64(t/time.Millisecond)/256)
		return math.Mod(q, 512) / 64
	})
}

// DefaultPyramid returns the headline comparison: 30 users sweeping 400 m
// disks over a 4k-node field, 1 s periods, with 3-period lookback windows
// on the windowed arms.
func DefaultPyramid() PyramidConfig {
	return PyramidConfig{
		Base: Base{
			Seed:         1,
			Nodes:        4000,
			RegionSide:   2000,
			SamplePeriod: 3 * time.Second,
			Radius:       400,
			Period:       time.Second,
			Deadline:     100 * time.Millisecond,
			Fresh:        time.Second,
			Duration:     30 * time.Second,
			Tick:         300 * time.Millisecond,
			Field:        QuantizedField(),
		},
		Courses: Courses{Users: 30, SpeedMin: 1, SpeedMax: 5, ChangeInterval: 8 * time.Second},
		Window:  3,
	}
}

// Validate reports configuration errors.
func (c PyramidConfig) Validate() error {
	if c.Window < 2 {
		return fmt.Errorf("experiment: pyramid Window %d must be at least 2", c.Window)
	}
	if err := c.Courses.Validate(); err != nil {
		return err
	}
	return c.Base.Validate()
}

// foldAggregate covers every value a subscriber could observe of an
// aggregate query.
func foldAggregate(wr *core.WindowResult, v []uint64) []uint64 {
	return append(v,
		uint64(wr.K),
		uint64(wr.Data.Count),
		math.Float64bits(wr.Data.Sum),
		math.Float64bits(wr.Data.Min),
		math.Float64bits(wr.Data.Max),
		uint64(wr.AreaNodes),
		uint64(wr.StaleNodes),
		uint64(wr.MaxStaleness),
		uint64(wr.Lateness),
		uint64(wr.WindowPeriods))
}

// RunPyramid executes the comparison: arms "flat", "pyramid", "flat/window"
// and "pyramid/window". Each pyramid arm shares one tile pyramid, ingested
// cooperatively by the dispatch workers, and must agree with its flat twin
// on the digest exactly — under the default quantized field, bit for bit.
func RunPyramid(cfg PyramidConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	w, rng := newWorkload(cfg.Base)
	// The index cell is an eighth of the query radius: the disk spans ~16
	// cells across, enough room for covered tiles at several levels.
	w.cell = cfg.Radius / 8
	w.arms = []arm{
		{label: "flat"},
		{label: "pyramid", pyramid: true},
		{label: "flat/window", window: cfg.Window},
		{label: "pyramid/window", pyramid: true, window: cfg.Window},
	}
	w.fold = foldAggregate
	for i := 0; i < cfg.Users; i++ {
		courseRNG := rand.New(rand.NewSource(rng.Int63()))
		course := cfg.draw(cfg.Base, courseRNG)
		w.users = append(w.users, &user{id: uint32(i + 1), pos: course.PosAt})
	}
	return w.run()
}
