package corridor

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

func testGrid(n int, seed int64) *geom.ShardedGrid {
	rng := rand.New(rand.NewSource(seed))
	region := geom.Square(1000)
	g := geom.NewShardedGrid(region, 100, 8)
	for i := 0; i < n; i++ {
		g.Insert(int32(i), region.UniformPoint(rng))
	}
	return g
}

func lineProfile(start geom.Point, vx, vy float64, ts sim.Time) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.LinearPath(start, geom.V(vx, vy), ts, ts+time.Second),
		TS:        ts,
		Generated: ts,
		Version:   1,
	}
}

func testConfig() Config {
	return Config{
		Lookahead: 4,
		Model:     ErrorModel{Base: 30},
		Radius:    150,
		Period:    time.Second,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Lookahead = 0 },
		func(c *Config) { c.Radius = 0 },
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.Model.Base = -1 },
		func(c *Config) { c.Model.Growth = -1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewCache(cfg, testGrid(10, 1)); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
	if _, err := NewCache(testConfig(), nil); err == nil {
		t.Error("nil grid accepted")
	}
}

func TestStagingWindow(t *testing.T) {
	g := testGrid(500, 1)
	c, err := NewCache(testConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.StagedBoundaries(); len(got) != 0 {
		t.Fatalf("staged %v before any profile", got)
	}
	c.SetProfile(lineProfile(geom.Pt(200, 200), 3, 1, 0), 0)
	if got := c.StagedBoundaries(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("initial window = %v, want [1 2 3 4]", got)
	}
	if st := c.Stats(); st.StagedBoundaries != 4 {
		t.Errorf("staged counter = %d, want 4", st.StagedBoundaries)
	}
	// Advancing past boundary 2 keeps 2 (may still be collecting), drops 1,
	// and tops up through boundary 6.
	c.StageThrough(2100 * time.Millisecond)
	if got := c.StagedBoundaries(); len(got) != 5 || got[0] != 2 || got[4] != 6 {
		t.Fatalf("advanced window = %v, want [2 3 4 5 6]", got)
	}
	cells := c.Corridor()
	if len(cells) == 0 {
		t.Fatal("swept corridor is empty")
	}
	for _, cell := range cells {
		if cell.Until < cell.From {
			t.Fatalf("cell %+v has inverted validity", cell)
		}
		if cell.Until < 2*time.Second || cell.Until > 6*time.Second {
			t.Fatalf("cell %+v serves a boundary outside the window", cell)
		}
	}
}

// TestWarmServeMatchesColdScan is the bit-identity property the whole
// subsystem rests on: for any actual position within the error model of
// the prediction, the staged visit emits exactly the sequence a cold
// VisitWithin over the actual circle does — same nodes, same canonical
// grid order — so folding either in visit order gives the same bits.
func TestWarmServeMatchesColdScan(t *testing.T) {
	g := testGrid(800, 2)
	cfg := testConfig()
	c, err := NewCache(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	start := geom.Pt(300, 300)
	c.SetProfile(lineProfile(start, 4, 2, 0), 0)
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= cfg.Lookahead; k++ {
		due := sim.Time(k) * cfg.Period
		predicted := start.Add(geom.V(4, 2).Scale(due.Seconds()))
		// The actual user strays from the prediction, but within the model.
		actual := geom.UniformInDisk(rng, predicted, cfg.Model.Base)
		var want, got []StagedNode
		g.VisitWithin(actual, cfg.Radius, func(id int32, pos geom.Point) {
			want = append(want, StagedNode{ID: id, Pos: pos})
		})
		served := c.VisitStaged(due, actual, cfg.Radius, func(id int32, pos geom.Point) {
			got = append(got, StagedNode{ID: id, Pos: pos})
		})
		if !served {
			t.Fatalf("boundary %d: staged visit refused within the error model", k)
		}
		if len(want) == 0 {
			t.Fatalf("boundary %d: empty cold scan proves nothing", k)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("boundary %d: staged visit sequence diverged from the cold scan\nwarm %v\ncold %v", k, got, want)
		}
	}
	if st := c.Stats(); st.Hits != int64(cfg.Lookahead) || st.Mispredicts != 0 {
		t.Errorf("ledger = %+v, want %d hits and no mispredicts", st, cfg.Lookahead)
	}
}

func TestMispredictDetectedAndTaken(t *testing.T) {
	g := testGrid(300, 4)
	cfg := testConfig()
	c, err := NewCache(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	c.SetProfile(lineProfile(geom.Pt(200, 200), 3, 0, 0), 0)
	// The user actually turned hard: far outside Base=30 m of the
	// prediction at boundary 1.
	actual := geom.Pt(600, 600)
	calls := 0
	if c.VisitStaged(time.Second, actual, cfg.Radius, func(int32, geom.Point) { calls++ }) {
		t.Fatal("mispredicted boundary served warm")
	}
	if calls != 0 {
		t.Fatalf("refused visit still streamed %d nodes", calls)
	}
	st := c.Stats()
	if st.Mispredicts != 1 || st.Hits != 0 {
		t.Fatalf("ledger = %+v, want one mispredict", st)
	}
	at, pos, ok := c.TakeMispredict()
	if !ok || at != time.Second || pos != actual {
		t.Fatalf("TakeMispredict = %v %v %v, want the observed escape", at, pos, ok)
	}
	if _, _, ok := c.TakeMispredict(); ok {
		t.Error("TakeMispredict did not clear")
	}
	// Off-boundary and unknown dues are plain misses, not mispredicts.
	if c.VisitStaged(1500*time.Millisecond, actual, cfg.Radius, func(int32, geom.Point) {}) {
		t.Error("off-boundary due served warm")
	}
	if got := c.Stats(); got.Mispredicts != 1 {
		t.Errorf("off-boundary miss counted as mispredict: %+v", got)
	}
}

func TestProfileCoverageBoundsStaging(t *testing.T) {
	g := testGrid(200, 6)
	cfg := testConfig()
	cfg.Lookahead = 8
	c, err := NewCache(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// A profile taking effect at 3 s with 2 s validity covers boundaries 3,
	// 4, and 5 only.
	p := lineProfile(geom.Pt(100, 100), 1, 1, 3*time.Second)
	p.Validity = 2 * time.Second
	c.SetProfile(p, 0)
	if got := c.StagedBoundaries(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("staged %v, want [3 4 5]", got)
	}
}

func TestGPSErrorModel(t *testing.T) {
	m := GPSErrorModel(5, 25, 4, 8*time.Second)
	if want := 25 + 15 + 64.0; m.Base != want || m.Growth != 0 {
		t.Errorf("model = %+v, want Base %v Growth 0", m, want)
	}
	// Zero threshold selects the predictor's default 20+err.
	m = GPSErrorModel(10, 0, 2, 4*time.Second)
	if want := 30 + 30 + 16.0; m.Base != want {
		t.Errorf("defaulted model = %+v, want Base %v", m, want)
	}
	if infl := m.Inflation(-time.Second); infl != m.Base {
		t.Errorf("negative age inflation = %v, want clamp to Base %v", infl, m.Base)
	}
	grow := ErrorModel{Base: 10, Growth: 2}
	if infl := grow.Inflation(3 * time.Second); infl != 16 {
		t.Errorf("Inflation(3s) = %v, want 16", infl)
	}
}
