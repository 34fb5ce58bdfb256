package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/obs"
	"mobiquery/internal/radio"
)

// ScaleConfig describes the multi-user scale scenario: Users mobile users,
// each with one periodic area query over a field of Nodes sensors, driven
// directly through the core.QueryEngine (no radio simulation). It measures
// the query-dispatch layer itself at populations far beyond what the
// discrete-event stack can carry — the ROADMAP's "millions of users"
// direction.
type ScaleConfig struct {
	Seed int64

	// Nodes sensors are deployed uniformly over a RegionSide × RegionSide
	// square; each of Users mobile users issues one query of the given
	// Radius.
	Nodes      int
	Users      int
	RegionSide float64
	Radius     float64

	// Each round every user moves Step meters along a fixed random heading
	// (reflecting at the region boundary) and every query's period of that
	// round is evaluated; Rounds rounds are executed.
	Step   float64
	Rounds int

	// Shards and Workers size the engine (zero = defaults); Shards 1 with
	// Workers 1 is the serial reference.
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// DefaultScale returns the headline scale scenario: 10k concurrent users
// over a 100k-node field — 500× the paper's node count — with paper-scale
// query radii scaled into a 10 km region.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Seed:       1,
		Nodes:      100_000,
		Users:      10_000,
		RegionSide: 10_000,
		Radius:     150,
		Step:       5,
		Rounds:     5,
		Field:      field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
	}
}

// Validate reports configuration errors.
func (c ScaleConfig) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Users <= 0:
		return fmt.Errorf("experiment: scale Nodes and Users must be positive")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: scale RegionSide and Radius must be positive")
	case c.Step < 0 || c.Rounds <= 0:
		return fmt.Errorf("experiment: scale Step must be non-negative and Rounds positive")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: scale Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: scale Field must be set")
	}
	return nil
}

// ScaleResult summarizes one scale run. Every field except Elapsed is a
// pure function of the configuration (independent of Shards/Workers), which
// is how the tests pin down that sharded dispatch changes only wall time.
type ScaleResult struct {
	Evaluations int     // Users × Rounds area evaluations performed
	MeanArea    float64 // mean in-area sensor count per evaluation
	MeanValue   float64 // mean Avg aggregate over non-empty areas
	Checksum    uint64  // order-independent integer digest of all results
	Elapsed     time.Duration

	// Per-round sweep wall time, as log-bucket quantile upper bounds from
	// an obs histogram — the same latency shape /metrics would report, so
	// the experiment and the live service read on the same scale.
	SweepP50 time.Duration
	SweepP99 time.Duration
}

// resultDigest folds one per-user aggregate into the run digest. Each
// query's value is bit-exact regardless of sharding (per-area accumulation
// runs in canonical grid order), so the digest hashes its exact bits; the fold is a wrapping
// uint64 sum, which is associative and commutative — the digest cannot
// depend on the order workers finish in, unlike the float64 accumulation it
// replaced (addition over float64 is non-associative, so the old digest
// could legitimately differ between serial and sharded runs).
func resultDigest(queryID uint32, v float64) uint64 {
	return (math.Float64bits(v) | 1) * uint64(queryID%97+1)
}

// RunScale executes the scale scenario: it indexes the node field, registers
// one temporal query per user — period one second, so round r's boundary is
// at r seconds — then alternates concurrent moves with rounds of the
// harness's due pump, every evaluation dispatched through the engine's worker
// pool (which with one worker is a serial loop).
func RunScale(cfg ScaleConfig) ScaleResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := geom.Square(cfg.RegionSide)

	// All randomness is drawn serially up front so the run's results do not
	// depend on goroutine interleaving.
	nodePos := make([]geom.Point, cfg.Nodes)
	for i := range nodePos {
		nodePos[i] = region.UniformPoint(rng)
	}
	userPos := make([]geom.Point, cfg.Users)
	userDir := make([]geom.Vec, cfg.Users)
	for i := range userPos {
		userPos[i] = region.UniformPoint(rng)
		userDir[i] = geom.FromAngle(rng.Float64() * 2 * math.Pi)
	}

	e := core.NewQueryEngine(region, cfg.Radius, cfg.Field,
		core.EngineConfig{Shards: cfg.Shards, Workers: cfg.Workers})

	start := time.Now()
	e.Dispatch(cfg.Nodes, func(i int) {
		e.UpsertNode(radio.NodeID(i), nodePos[i])
	})
	qs := make([]core.Query, cfg.Users)
	spec := core.TemporalSpec{Period: time.Second}
	for i := range qs {
		if err := e.RegisterQuery(&qs[i], uint32(i+1), cfg.Radius, userPos[i], spec, -time.Second, i); err != nil {
			panic(err)
		}
	}

	// Each round's results land in their user's slot and are folded serially
	// in id order, so the float sums do not depend on worker finish order.
	out := make([]core.WindowResult, cfg.Users)
	var at time.Duration
	step := func(q *core.Query, _ time.Duration, rb *core.RearmBatch) bool {
		i := q.Owner().(int)
		q.Lock()
		wr, ok := q.EvaluateDueAt(userPos[i], at, rb)
		q.Unlock()
		out[i] = wr
		return ok
	}
	pump := newDuePump(e)

	var res ScaleResult
	sweepLat := obs.NewHistogram(int64(10*time.Minute), 1e-9)
	var areaSum, valueSum float64
	var checksum uint64
	valued := 0
	for round := 0; round < cfg.Rounds; round++ {
		if round > 0 {
			e.Dispatch(cfg.Users, func(i int) {
				userDir[i] = region.Reflect(userPos[i], userDir[i])
				userPos[i] = region.Clamp(userPos[i].Add(userDir[i].Scale(cfg.Step)))
			})
		}
		at = time.Duration(round) * time.Second
		sweepStart := time.Now()
		pump.tick(at, step)
		sweepLat.Observe(time.Since(sweepStart).Nanoseconds())
		for i := range out {
			wr := &out[i]
			if wr.K != round+1 {
				continue
			}
			res.Evaluations++
			areaSum += float64(wr.AreaNodes)
			if wr.Data.Count > 0 {
				v := wr.Data.Value(core.AggAvg)
				valueSum += v
				valued++
				checksum += resultDigest(uint32(i+1), v)
			}
		}
	}
	res.Elapsed = time.Since(start)
	if res.Evaluations > 0 {
		res.MeanArea = areaSum / float64(res.Evaluations)
	}
	if valued > 0 {
		res.MeanValue = valueSum / float64(valued)
	}
	res.Checksum = checksum
	res.SweepP50 = time.Duration(sweepLat.Quantile(0.5))
	res.SweepP99 = time.Duration(sweepLat.Quantile(0.99))
	return res
}
