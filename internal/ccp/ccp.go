// Package ccp implements a Coverage Configuration Protocol in the spirit of
// Wang et al. (SenSys 2003), which the paper uses as its power management
// substrate. CCP selects a subset of nodes to stay active (the backbone)
// such that the deployment region remains sensing-covered; the remaining
// nodes may duty-cycle.
//
// Because the paper's setting satisfies Rc >= 2*Rs (105 m >= 2*50 m),
// sensing coverage implies communication connectivity of the active set
// (CCP's main theorem). This implementation checks the node-disk coverage
// eligibility rule at sampled points rather than at exact disk intersection
// points — an approximation — and therefore runs two safety-net repair
// passes afterwards: a region-grid coverage patch and a connectivity patch.
package ccp

import (
	"fmt"
	"math"
	"math/rand"

	"mobiquery/internal/geom"
)

// Config holds the coverage protocol's parameters.
type Config struct {
	// GridStep is the sample spacing for the global coverage repair pass.
	GridStep float64
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{GridStep: 15}
}

const (
	sensingRange = 50  // each node's sensing radius Rs (m), as in the paper
	commRange    = 105 // the communication radius Rc (m), as in the paper
	// perimeterSamples is the number of points sampled on a node's sensing
	// perimeter for the eligibility check.
	perimeterSamples = 16
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.GridStep <= 0:
		return fmt.Errorf("ccp: GridStep must be positive")
	}
	return nil
}

// Result describes a backbone selection.
type Result struct {
	// Active[i] reports whether node i must stay always-on.
	Active []bool
	// NumActive is the backbone size.
	NumActive int
}

// Select computes the active backbone for the given node positions. The rng
// determines the (deterministic, seed-dependent) withdrawal order, matching
// CCP's randomized back-off timers.
func Select(region geom.Rect, positions []geom.Point, cfg Config, rng *rand.Rand) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(positions)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	res := Result{Active: active}
	if n == 0 {
		return res
	}

	// Withdrawal pass: in random order, each node sleeps if its sensing
	// disk is covered by the remaining active nodes.
	order := rng.Perm(n)
	grid := geom.NewShardedGrid(region, sensingRange, 1)
	for i, p := range positions {
		grid.Insert(int32(i), p)
	}
	var buf []int32
	for _, i := range order {
		if diskCovered(i, positions, active, region, grid, &buf) {
			active[i] = false
		}
	}

	// Coverage repair: every grid sample point coverable by some node must
	// be covered by an active node.
	repairCoverage(region, active, cfg, grid)

	// Connectivity repair: with Rc >= 2*Rs this should be a no-op, but the
	// sampled eligibility rule can leave rare corner gaps.
	repairConnectivity(positions, active)

	for _, a := range active {
		if a {
			res.NumActive++
		}
	}
	return res
}

// diskCovered reports whether node i's sensing disk (clipped to the region)
// is covered by the sensing disks of other active nodes. Coverage is tested
// at the disk center and at sampled perimeter points.
func diskCovered(i int, positions []geom.Point, active []bool, region geom.Rect, grid *geom.ShardedGrid, buf *[]int32) bool {
	p := positions[i]
	// Candidate coverers: active nodes within 2*Rs of p.
	cands := (*buf)[:0]
	grid.VisitWithin(p, 2*sensingRange, func(id int32, _ geom.Point) {
		if int(id) != i && active[id] {
			cands = append(cands, id)
		}
	})
	*buf = cands
	if len(cands) == 0 {
		return false
	}
	covered := func(q geom.Point) bool {
		for _, id := range cands {
			if positions[id].Within(q, sensingRange) {
				return true
			}
		}
		return false
	}
	if !covered(p) {
		return false
	}
	for k := 0; k < perimeterSamples; k++ {
		theta := 2 * math.Pi * float64(k) / perimeterSamples
		q := p.Add(geom.FromAngle(theta).Scale(sensingRange * 0.999))
		if !region.Contains(q) {
			continue // points outside the region need no coverage
		}
		if !covered(q) {
			return false
		}
	}
	return true
}

// repairCoverage re-activates nodes until every coverable grid sample point
// is covered.
func repairCoverage(region geom.Rect, active []bool, cfg Config, grid *geom.ShardedGrid) {
	for x := region.MinX + cfg.GridStep/2; x <= region.MaxX; x += cfg.GridStep {
		for y := region.MinY + cfg.GridStep/2; y <= region.MaxY; y += cfg.GridStep {
			q := geom.Pt(x, y)
			// The first active node in scan order covers q; until one shows
			// up, track the nearest inactive one. A deployment hole (nobody
			// within range) leaves both unset.
			covered := false
			bestInactive := -1
			bestDist := math.MaxFloat64
			grid.VisitWithin(q, sensingRange, func(id int32, pos geom.Point) {
				if covered {
					return
				}
				if active[id] {
					covered = true
					return
				}
				if d := pos.Dist2(q); d < bestDist {
					bestInactive, bestDist = int(id), d
				}
			})
			if !covered && bestInactive >= 0 {
				active[bestInactive] = true
			}
		}
	}
}

// repairConnectivity activates additional nodes until the active set forms
// a single connected component under the communication range. It gives up
// (leaving the network partitioned) only when no inactive node can reduce the
// gap, which cannot happen for deployments dense enough to be covered.
func repairConnectivity(positions []geom.Point, active []bool) {
	for {
		comp := components(positions, active, commRange)
		if comp.count <= 1 {
			return
		}
		// Closest pair of active nodes across two different components.
		bestA, bestB := -1, -1
		bestDist := math.MaxFloat64
		for i := range positions {
			if !active[i] {
				continue
			}
			for j := i + 1; j < len(positions); j++ {
				if !active[j] || comp.id[i] == comp.id[j] {
					continue
				}
				if d := positions[i].Dist2(positions[j]); d < bestDist {
					bestA, bestB, bestDist = i, j, d
				}
			}
		}
		if bestA < 0 {
			return
		}
		// Activate the inactive node that best bridges the gap.
		bridge := -1
		bridgeScore := math.MaxFloat64
		for i := range positions {
			if active[i] {
				continue
			}
			score := positions[i].Dist(positions[bestA]) + positions[i].Dist(positions[bestB])
			if score < bridgeScore {
				bridge, bridgeScore = i, score
			}
		}
		if bridge < 0 {
			return // nothing left to activate
		}
		active[bridge] = true
	}
}

// componentSet labels nodes with connected-component ids.
type componentSet struct {
	id    []int
	count int
}

// components computes connected components of the active nodes under the
// given communication range.
func components(positions []geom.Point, active []bool, commRange float64) componentSet {
	n := len(positions)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if !active[j] {
				continue
			}
			if positions[i].Within(positions[j], commRange) {
				parent[find(i)] = find(j)
			}
		}
	}
	cs := componentSet{id: make([]int, n)}
	seen := make(map[int]int)
	for i := 0; i < n; i++ {
		if !active[i] {
			cs.id[i] = -1
			continue
		}
		root := find(i)
		label, ok := seen[root]
		if !ok {
			label = cs.count
			seen[root] = label
			cs.count++
		}
		cs.id[i] = label
	}
	return cs
}

// Verify checks that the active selection covers every coverable grid point
// of the region and forms a connected communication graph. It returns nil
// when both invariants hold.
func Verify(region geom.Rect, positions []geom.Point, active []bool, cfg Config) error {
	if len(active) != len(positions) {
		return fmt.Errorf("ccp: active mask length %d != positions %d", len(active), len(positions))
	}
	grid := geom.NewShardedGrid(region, sensingRange, 1)
	for i, p := range positions {
		grid.Insert(int32(i), p)
	}
	for x := region.MinX + cfg.GridStep/2; x <= region.MaxX; x += cfg.GridStep {
		for y := region.MinY + cfg.GridStep/2; y <= region.MaxY; y += cfg.GridStep {
			q := geom.Pt(x, y)
			coverable, ok := false, false
			grid.VisitWithin(q, sensingRange, func(id int32, _ geom.Point) {
				coverable = true
				ok = ok || active[id]
			})
			if coverable && !ok {
				return fmt.Errorf("ccp: point %v uncovered by active set", q)
			}
		}
	}
	anyActive := false
	for _, a := range active {
		if a {
			anyActive = true
			break
		}
	}
	if anyActive {
		if c := components(positions, active, commRange); c.count > 1 {
			return fmt.Errorf("ccp: active set has %d components, want 1", c.count)
		}
	}
	return nil
}
