// Package corridor is the spatial half of predictive prefetching: it turns
// a mobile user's (possibly noisy) motion profile into an error-inflated
// spatial corridor — the geom.ShardedGrid cells the predicted query area
// sweeps over the next few period boundaries, each with a validity interval
// — and stages per-boundary node snapshots from those cells ahead of time,
// so the engine's windowed evaluation serves staged periods from a warm,
// contiguous buffer in canonical grid order instead of a cold grid radius
// scan.
//
// The cache is honest about prediction error. Every staged snapshot records
// the inflated circle it covers; at serve time the user's *actual* query
// circle must fit inside the staged circle, otherwise the evaluation falls
// back to the cold scan — so a warm serve is bit-identical to the cold one
// by construction. An actual position outside the corridor is a
// *mispredict*: it is counted, surfaced through TakeMispredict so the
// session layer can re-plan immediately from ground truth, and the period
// keeps the honest on-demand accounting the prefetch planner's
// whole-answer-staged credit rule demands.
//
// The grid a cache stages from must not change while it serves: a snapshot
// is never re-checked against the grid it was cut from. The query engine
// guarantees this by fixing its index once the first query registers.
package corridor

import (
	"fmt"
	"slices"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

// collectSlack widens every staged circle by a hair beyond the computed
// inflation, so float rounding in the triangle inequality — coverage is
// checked with one Dist while membership is checked with Dist2 — can never
// exclude a node the cold scan would include.
const collectSlack = 1e-6

// ErrorModel bounds how far a predicted position may sit from the user's
// true position: a fixed Base plus Growth per second of prediction age
// (time since the governing profile was generated). The corridor inflates
// each predicted query circle by the bound, so the true query area stays
// inside the staged area as long as the model holds; a prediction that
// escapes the bound is detected at serve time as a mispredict.
type ErrorModel struct {
	// Base is the fixed location-error bound in meters (e.g. the GPS error
	// radius plus the predictor's re-profiling threshold).
	Base float64
	// Growth inflates the bound with prediction age, in meters per second.
	Growth float64
}

// Validate reports model errors.
func (m ErrorModel) Validate() error {
	if m.Base < 0 || m.Growth < 0 {
		return fmt.Errorf("corridor: error model must be non-negative, got %+v", m)
	}
	return nil
}

// Inflation returns the error bound for a prediction of the given age.
func (m ErrorModel) Inflation(age time.Duration) float64 {
	if age < 0 {
		age = 0
	}
	return m.Base + m.Growth*age.Seconds()
}

// GPSErrorModel returns the ErrorModel covering a mobility.GPSPredictor's
// worst-case prediction error against a user moving at up to maxSpeed m/s.
// The predictor re-profiles whenever a reading diverges from the prediction
// by more than threshold (zero selects the predictor's own default,
// 20+err), and each reading errs by at most err, so at every sampling
// instant the prediction is within threshold+err of the truth; between two
// checks — one sampling period apart — the prediction and the truth
// separate at most at the sum of their speeds, and the velocity estimated
// from two noisy readings errs by up to 2*err/sampling. Summed:
//
//	bound = threshold + 3*err + 2*maxSpeed*sampling
//
// constant in prediction age, hence Growth 0. The bound is proven as a
// property test in internal/mobility.
func GPSErrorModel(err, threshold, maxSpeed float64, sampling time.Duration) ErrorModel {
	if threshold <= 0 {
		threshold = mobility.DefaultThreshold(err)
	}
	return ErrorModel{Base: threshold + 3*err + 2*maxSpeed*sampling.Seconds()}
}

// Config fixes the quantities a Cache needs: the subscription's spatial and
// temporal shape plus the error model of its predictions.
type Config struct {
	// Lookahead is how many period boundaries ahead the corridor sweeps and
	// stages; it must be at least 1 (a zero lookahead means "no corridor" —
	// don't build a cache at all).
	Lookahead int
	// Model bounds the prediction error the corridor absorbs.
	Model ErrorModel
	// Radius is the query radius Rq.
	Radius float64
	// Period is the subscription period; boundary k is due at T0+k*Period.
	Period time.Duration
	// T0 is the subscription epoch.
	T0 sim.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch {
	case c.Lookahead < 1:
		return fmt.Errorf("corridor: lookahead %d must be at least 1", c.Lookahead)
	case c.Radius <= 0:
		return fmt.Errorf("corridor: radius %v must be positive", c.Radius)
	case c.Period <= 0:
		return fmt.Errorf("corridor: period %v must be positive", c.Period)
	}
	return nil
}

// StagedNode is one sensor in a staged snapshot.
type StagedNode struct {
	ID  int32
	Pos geom.Point
}

// stage is one boundary's staged snapshot: the inflated circle it covers
// and the in-circle nodes in canonical grid order — the warm, contiguous
// buffer evaluation iterates.
type stage struct {
	due     sim.Time
	center  geom.Point
	radius  float64 // cfg.Radius + inflation (+ collectSlack)
	builtAt sim.Time
	cells   []cellKey
	nodes   []StagedNode
}

type cellKey struct{ cx, cy int }

// Cell is one grid cell of the swept corridor, with the interval over
// which its staged contents serve boundaries: From is when the earliest
// snapshot touching it was cut, Until the latest boundary it serves.
type Cell struct {
	CX, CY      int
	From, Until sim.Time
}

// Stats is the cache's ledger. Hits and Misses partition evaluations the
// engine asked the cache about: a hit was served warm from a staged
// snapshot, a miss fell back to the cold scan (no snapshot for the
// boundary, or a mispredict, counted again in Mispredicts).
type Stats struct {
	Hits        int64
	Misses      int64
	Mispredicts int64
	// StagedBoundaries counts snapshots built over the cache's lifetime.
	StagedBoundaries int64
}

// Cache is one subscription's corridor: it consumes the subscriber's
// predicted motion profiles as they arrive, keeps the next Lookahead
// boundaries staged, and serves the engine's evaluations through the
// core.CorridorWarmer hook (VisitStaged). A Cache is not safe for
// concurrent use: the owning Subscription calls every method under its
// query lock.
type Cache struct {
	cfg  Config
	grid *geom.ShardedGrid

	profile     mobility.Profile
	haveProfile bool
	stages      map[int]*stage
	// free recycles retired stage buffers: a steady-state subscription
	// builds one snapshot per period, and without reuse the node and cell
	// slices of every dropped stage would be fresh garbage.
	free []*stage
	// pending mispredict: the most recent actual position observed outside
	// the corridor, for the session layer to re-plan from.
	mispredicted  bool
	mispredictAt  sim.Time
	mispredictPos geom.Point

	stats Stats
}

// NewCache builds an empty corridor cache over the engine's node grid. It
// stages nothing until a profile arrives via SetProfile.
func NewCache(cfg Config, grid *geom.ShardedGrid) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if grid == nil {
		return nil, fmt.Errorf("corridor: cache needs a grid")
	}
	return &Cache{cfg: cfg, grid: grid, stages: make(map[int]*stage)}, nil
}

// kFor inverts due = T0 + k*Period; ok is false when due is not one of the
// subscription's boundaries.
func (c *Cache) kFor(due sim.Time) (int, bool) {
	d := due - c.cfg.T0
	if d <= 0 || d%c.cfg.Period != 0 {
		return 0, false
	}
	return int(d / c.cfg.Period), true
}

// nextK returns the index of the first boundary strictly after now.
func (c *Cache) nextK(now sim.Time) int {
	if now < c.cfg.T0 {
		return 1
	}
	return int((now-c.cfg.T0)/c.cfg.Period) + 1
}

// SetProfile replaces the governing motion profile at virtual time now — a
// fresher prediction arrived, or a mispredict forced a ground-truth
// correction — and immediately re-sweeps the corridor: every staged
// boundary is dropped and the next Lookahead boundaries are restaged under
// the new prediction.
func (c *Cache) SetProfile(p mobility.Profile, now sim.Time) {
	c.profile = p
	c.haveProfile = true
	for k, st := range c.stages {
		c.retire(st)
		delete(c.stages, k)
	}
	c.stageWindow(now)
}

// retire returns a dropped stage's buffers to the freelist. The caller must
// also delete it from c.stages.
func (c *Cache) retire(st *stage) {
	if len(c.free) < 8 {
		c.free = append(c.free, st)
	}
}

// blank returns a zeroed stage with recycled buffers.
func (c *Cache) blank() *stage {
	if n := len(c.free); n > 0 {
		st := c.free[n-1]
		c.free = c.free[:n-1]
		*st = stage{cells: st.cells[:0], nodes: st.nodes[:0]}
		return st
	}
	return &stage{}
}

// StageThrough tops the corridor up at virtual time now: boundaries the
// user has passed are dropped and any unstaged boundary of the next
// Lookahead window is swept and staged. Call it after each boundary
// evaluation — staging for boundary k+1 then happens ahead of k+1's due
// time, which is what makes the buffer warm rather than merely cached.
func (c *Cache) StageThrough(now sim.Time) { c.stageWindow(now) }

// stageWindow drops consumed stages and stages the missing boundaries of
// [nextK, nextK+Lookahead-1].
func (c *Cache) stageWindow(now sim.Time) {
	if !c.haveProfile {
		return
	}
	next := c.nextK(now)
	for k, st := range c.stages {
		// Keep the boundary currently being collected (due may equal now);
		// anything a full period behind is consumed.
		if st.due+c.cfg.Period < now {
			c.retire(st)
			delete(c.stages, k)
		}
	}
	for k := next; k < next+c.cfg.Lookahead; k++ {
		if _, ok := c.stages[k]; ok {
			continue
		}
		if st := c.buildStage(k, now); st != nil {
			c.stages[k] = st
			c.stats.StagedBoundaries++
		}
	}
}

// buildStage sweeps and snapshots one boundary: the corridor cells of the
// inflated predicted circle (its CellBox), their bucket contents filtered to
// the circle. The row-major cell sweep over id-sorted buckets leaves the
// nodes in canonical grid order, and the box of the inflated circle contains
// the box of any circle it covers, so filtering the buffer to such a circle
// yields exactly the sequence a cold VisitWithin would — the warm fold
// matches the cold one bit for bit with no sort here or at serve time.
// Returns nil when the profile does not cover the boundary.
func (c *Cache) buildStage(k int, now sim.Time) *stage {
	due := c.cfg.T0 + sim.Time(k)*c.cfg.Period
	if due < c.profile.TS {
		return nil
	}
	if c.profile.Validity > 0 && due > c.profile.Expiry() {
		return nil
	}
	center := c.profile.PredictAt(due)
	r := c.cfg.Radius + c.cfg.Model.Inflation(due-c.profile.Generated) + collectSlack
	st := c.blank()
	st.due, st.center, st.radius, st.builtAt = due, center, r, now
	r2 := r * r
	minCX, minCY, maxCX, maxCY := c.grid.CellBox(center, r)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			st.cells = append(st.cells, cellKey{cx, cy})
			c.grid.VisitCell(cx, cy, func(id int32, pos geom.Point) {
				if pos.Dist2(center) <= r2 {
					st.nodes = append(st.nodes, StagedNode{ID: id, Pos: pos})
				}
			})
		}
	}
	return st
}

// VisitStaged implements the engine's CorridorWarmer hook: it streams the
// staged nodes of the boundary due at `due` that fall inside the actual
// query circle (center, radius) and reports true, or reports false without
// calling fn when the evaluation must fall back to the cold scan — no
// snapshot, or the actual circle escaping the staged circle (a mispredict,
// recorded for TakeMispredict).
// A warm serve enumerates exactly the nodes the cold scan would, in the
// cold scan's canonical grid order.
func (c *Cache) VisitStaged(due sim.Time, center geom.Point, radius float64, fn func(id int32, pos geom.Point)) bool {
	k, ok := c.kFor(due)
	st := c.stages[k]
	if !ok || st == nil {
		c.stats.Misses++
		return false
	}
	// Coverage: every point within `radius` of the actual center must lie
	// within the staged circle (triangle inequality; collectSlack absorbs
	// the float error of the two distance computations).
	if center.Dist(st.center)+radius > st.radius {
		c.mispredicted = true
		c.mispredictAt = due
		c.mispredictPos = center
		c.stats.Mispredicts++
		c.stats.Misses++
		return false
	}
	r2 := radius * radius
	for i := range st.nodes {
		if st.nodes[i].Pos.Dist2(center) <= r2 {
			fn(st.nodes[i].ID, st.nodes[i].Pos)
		}
	}
	c.stats.Hits++
	return true
}

// TakeMispredict returns and clears the most recent mispredict: the
// boundary at which the user's actual position escaped the corridor, and
// that position. The session layer re-plans from it (ground truth beats a
// broken prediction) — the immediate-replan half of the mispredict
// contract; the accounting half happened already, because the mispredicted
// evaluation was served cold.
func (c *Cache) TakeMispredict() (at sim.Time, actual geom.Point, ok bool) {
	if !c.mispredicted {
		return 0, geom.Point{}, false
	}
	c.mispredicted = false
	return c.mispredictAt, c.mispredictPos, true
}

// Corridor returns the swept corridor as of the staged window: every grid
// cell touched by a staged boundary's inflated circle, with the validity
// interval [earliest snapshot cut, latest boundary served] merged across
// boundaries. Cells are ordered by (CY, CX). Introspection only — the
// serve path never touches this.
func (c *Cache) Corridor() []Cell {
	merged := make(map[cellKey]Cell)
	for _, st := range c.stages {
		for _, ck := range st.cells {
			cell, ok := merged[ck]
			if !ok {
				cell = Cell{CX: ck.cx, CY: ck.cy, From: st.builtAt, Until: st.due}
			} else {
				if st.builtAt < cell.From {
					cell.From = st.builtAt
				}
				if st.due > cell.Until {
					cell.Until = st.due
				}
			}
			merged[ck] = cell
		}
	}
	out := make([]Cell, 0, len(merged))
	for _, cell := range merged {
		out = append(out, cell)
	}
	slices.SortFunc(out, func(a, b Cell) int {
		if a.CY != b.CY {
			return a.CY - b.CY
		}
		return a.CX - b.CX
	})
	return out
}

// StagedBoundaries returns the boundary indices currently staged, in
// ascending order.
func (c *Cache) StagedBoundaries() []int {
	out := make([]int, 0, len(c.stages))
	for k := range c.stages {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Stats returns the cache's ledger snapshot.
func (c *Cache) Stats() Stats { return c.stats }
