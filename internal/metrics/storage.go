package metrics

import (
	"time"

	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// StorageTracker measures the storage cost of a query session (Section
// 5.2): how many query trees the nodes set up and how far ahead of the user
// the prefetching process has built them (the prefetch length).
//
// Wire Add to core.Hooks.OnTreeUp.
type StorageTracker struct {
	t0     sim.Time
	period time.Duration

	setups int
	plMax  int
}

// NewStorageTracker tracks a query issued at t0 with the given period.
func NewStorageTracker(t0 sim.Time, period time.Duration) *StorageTracker {
	return &StorageTracker{t0: t0, period: period}
}

// Add records a tree instantiation for period k on a node at time at.
func (st *StorageTracker) Add(_ radio.NodeID, k int, at sim.Time) {
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
	if pl > st.plMax {
		st.plMax = pl
	}
}

// MaxPrefetchLength returns the worst-case observed prefetch length in
// periods — the paper's PL metric.
func (st *StorageTracker) MaxPrefetchLength() int { return st.plMax }

// Setups returns the total number of (node, tree) instantiations.
func (st *StorageTracker) Setups() int { return st.setups }
