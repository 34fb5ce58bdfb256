package metrics

import (
	"time"

	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// StorageTracker measures the storage cost of a query session (Section
// 5.2): how many query trees each node holds and how far ahead of the user
// the prefetching process has built trees (the prefetch length).
//
// Wire Add/Remove to core.Hooks.OnTreeUp/OnTreeDown.
type StorageTracker struct {
	t0     sim.Time
	period time.Duration

	live       map[radio.NodeID]int
	maxPerNode int
	setups     int
	plSum      float64
	plMax      int
}

// NewStorageTracker tracks a query issued at t0 with the given period.
func NewStorageTracker(t0 sim.Time, period time.Duration) *StorageTracker {
	return &StorageTracker{
		t0:     t0,
		period: period,
		live:   make(map[radio.NodeID]int),
	}
}

// Add records a tree instantiation for period k on a node at time at.
func (st *StorageTracker) Add(node radio.NodeID, k int, at sim.Time) {
	st.live[node]++
	if st.live[node] > st.maxPerNode {
		st.maxPerNode = st.live[node]
	}
	st.setups++
	// Prefetch length: how many periods ahead of the user this tree is.
	current := 0
	if at > st.t0 {
		current = int((at - st.t0) / st.period)
	}
	pl := k - current
	if pl < 0 {
		pl = 0
	}
	st.plSum += float64(pl)
	if pl > st.plMax {
		st.plMax = pl
	}
}

// Remove records a tree teardown for period k on a node.
func (st *StorageTracker) Remove(node radio.NodeID, _ int, _ sim.Time) {
	st.live[node]--
	if st.live[node] <= 0 {
		delete(st.live, node)
	}
}

// MaxTreesPerNode returns the peak number of simultaneous trees on any
// single node.
func (st *StorageTracker) MaxTreesPerNode() int { return st.maxPerNode }

// MaxPrefetchLength returns the worst-case observed prefetch length in
// periods — the paper's PL metric.
func (st *StorageTracker) MaxPrefetchLength() int { return st.plMax }

// MeanPrefetchLength returns the mean prefetch length across setups.
func (st *StorageTracker) MeanPrefetchLength() float64 {
	if st.setups == 0 {
		return 0
	}
	return st.plSum / float64(st.setups)
}

// Setups returns the total number of (node, tree) instantiations.
func (st *StorageTracker) Setups() int { return st.setups }
