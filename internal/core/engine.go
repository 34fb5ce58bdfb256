package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// EngineConfig sizes the concurrent multi-user query engine: how many
// workers the dispatch pool runs. The zero EngineConfig is valid.
type EngineConfig struct {
	// Workers is the worker-pool size used to fan independent users'
	// work across cores (<=0 selects GOMAXPROCS).
	Workers int
}

func (c EngineConfig) normalized() EngineConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports configuration errors (negative knobs; zero means auto).
func (c EngineConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("core: engine workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Query is one registered user query — a radius around a mobile waypoint —
// and its handle, stored by value in the caller's per-user state: the
// per-query operations are methods on it, so a driver that keeps the handle
// never resolves an id (the id-keyed engine methods resolve once and delegate
// here). One mutex (Lock) guards all mutable state, the query's and its
// owner's session state beside it — a Subscription's prefetch planner and
// corridor cache included, which have no lock of their own: a period is one
// lock acquisition, and evaluations of distinct queries never contend.
type Query struct {
	id uint32
	// slot is the query's index in its schedule bucket plus one: 0 while
	// popped or not yet armed, slotRemoved once deregistered. bucket is that
	// bucket's index in the schedule's table while slot > 0. Both are
	// guarded by the schedule lock, not mu.
	slot int32
	// offColumn mirrors sampler != nil || aggIndex != nil — the query's
	// readings are its plan's or its pyramid's — for PopDue to read without mu.
	offColumn atomic.Bool
	bucket    int32
	radius    float64
	eng       *QueryEngine
	owner     any
	// spec and t0 are the temporal contract, fixed at registration. nextK is
	// the 1-based index of the next period to evaluate: written under mu,
	// read lock-free by NextDue.
	spec  TemporalSpec
	t0    sim.Time
	nextK atomic.Int64

	mu  sync.Mutex
	pos geom.Point
	// winRing holds the last spec.Window single-period evaluations of a
	// windowed query (allocated on first use, entries reused in place);
	// winNext/winLen are the ring cursor and fill.
	winRing []windowPeriod
	winNext int32
	winLen  int32
	// sampler overrides the engine-global Sampler for this query's windowed
	// evaluations, plan is the prefetch plan EvaluateDue consults, warmer
	// serves pre-staged corridor snapshots to evaluateWindow, and aggIndex
	// answers whole-disk aggregates from a multiresolution tile pyramid;
	// all four are nil (pure on-demand, cold-scan behavior) unless installed
	// via SetSampler/SetPlan/SetWarmer/SetAggIndex.
	sampler  AreaSampler
	plan     PrefetchPlan
	warmer   CorridorWarmer
	aggIndex AggIndex
}

// slotRemoved is Query.slot after Schedule.Remove, for good.
const slotRemoved = -1

// Owner returns the value registration attached to the query: a driver
// goes from a popped schedule entry to its own state without a lookup.
func (q *Query) Owner() any { return q.owner }

// Lock and Unlock are the query's mutex, which is also its owner's session
// lock: a driver holds it around EvaluateDueAt and its own per-period state.
func (q *Query) Lock()   { q.mu.Lock() }
func (q *Query) Unlock() { q.mu.Unlock() }

// QueryEngine is the concurrent multi-user query engine: a spatial
// index of sensor-node positions (geom.ShardedGrid), a registry of live
// temporal queries and the schedule of their period boundaries, with
// per-query work safe to issue from many goroutines at once and fanned
// across a worker pool by DispatchWorkers — except PopDue, which runs on
// one goroutine at a time and never beside an evaluation. PopDue is the one
// writer of the reading columns evaluations fold through; a clock driver
// pops, then fans out.
//
// The field is placed once: UpsertNode fills the index before the first
// RegisterQuery, and panics after it. Every reader that keeps what it read
// of the index — a reading column, a pyramid epoch, a corridor stage —
// serves it for as long as it likes on that contract alone.
//
// It answers the paper's spatiotemporal query: at each period boundary, the
// aggregate of the fresh readings inside the circle of radius Rq around the
// user.
type QueryEngine struct {
	cfg     EngineConfig
	grid    *geom.ShardedGrid
	fld     field.Field
	sampler Sampler
	// mu guards queries, the registry: one write per registration or
	// deregistration, never taken on the period path, which holds handles.
	mu      sync.Mutex
	queries map[uint32]*Query
	nq      atomic.Int64
	// sched tracks every temporal query's next period boundary, keyed
	// (due, id), so PopDue hands a clock driver exactly the queries with a
	// period due — an idle tick costs O(1) instead of O(queries).
	sched *Schedule
	// spare recycles the state of a finished DispatchWorkers run.
	spare atomic.Pointer[dispatchRun]
	// cols[:colLive] are the reading columns of the last popped batch.
	// PopDue alone writes them, on one goroutine at a time and never beside
	// an evaluation, so neither takes a lock; a pop that builds no column
	// while none is live writes neither. maxNode is the highest node id UpsertNode has
	// seen.
	cols    []*readingColumn
	colLive int
	maxNode int32
	// placed latches at the first RegisterQuery: the index is fixed from
	// then on.
	placed atomic.Bool

	colBuilds, colScans atomic.Uint64
}

// readingColumn is every node's reading at one period boundary, by node id:
// what each of the boundary's scans would derive again for every node it
// covers. Readings, never results — each query still folds its own disk in
// canonical order against its own freshness window.
type readingColumn struct {
	due  sim.Time
	at   []Reading
	fill func(worker, cy int) // builds one cell row; bound once, so a build allocates nothing
}

// ColumnStats counts the reading columns PopDue built and the evaluations
// that folded through one.
type ColumnStats struct{ Builds, Scans uint64 }

// ColumnStats returns the reading-column counters.
func (e *QueryEngine) ColumnStats() ColumnStats {
	return ColumnStats{e.colBuilds.Load(), e.colScans.Load()}
}

// NewQueryEngine creates an engine over region. cellSize tunes the spatial
// hash (the typical query radius or the radio range are good choices); fld
// is the sensor field sampled during evaluation. It panics on invalid
// input; NewQueryEngineE is the error-returning variant.
func NewQueryEngine(region geom.Rect, cellSize float64, fld field.Field, cfg EngineConfig) *QueryEngine {
	e, err := NewQueryEngineE(region, cellSize, fld, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewQueryEngineE is NewQueryEngine reporting invalid input as an error.
func NewQueryEngineE(region geom.Rect, cellSize float64, fld field.Field, cfg EngineConfig) (*QueryEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fld == nil {
		return nil, fmt.Errorf("core: query engine needs a field")
	}
	cfg = cfg.normalized()
	e := &QueryEngine{
		cfg:     cfg,
		grid:    geom.NewShardedGrid(region, cellSize, 0),
		fld:     fld,
		queries: make(map[uint32]*Query),
		sched:   NewSchedule(),
		maxNode: -1,
	}
	return e, nil
}

// Workers returns the dispatch pool size.
func (e *QueryEngine) Workers() int { return e.cfg.Workers }

// Index returns the underlying node index.
func (e *QueryEngine) Index() *geom.ShardedGrid { return e.grid }

// UpsertNode records (or moves) a sensor node's position. It is not safe
// for concurrent use: the field is placed by one writer. It panics once a
// query has registered: the field is placed before anything is asked of it.
func (e *QueryEngine) UpsertNode(id radio.NodeID, p geom.Point) {
	if e.placed.Load() {
		panic("core: UpsertNode after RegisterQuery")
	}
	e.maxNode = max(e.maxNode, int32(id))
	e.grid.Insert(int32(id), p)
}

// NodeCount returns the number of indexed sensor nodes.
func (e *QueryEngine) NodeCount() int { return e.grid.Len() }

// Lookup resolves a query id through the registry; nil when unknown.
func (e *QueryEngine) Lookup(queryID uint32) *Query {
	e.mu.Lock()
	q := e.queries[queryID]
	e.mu.Unlock()
	return q
}

// Deregister removes a live query. Unknown ids are a no-op.
func (e *QueryEngine) Deregister(queryID uint32) {
	if q := e.Lookup(queryID); q != nil {
		q.Deregister()
	}
}

// Deregister removes the query from the engine and spends the handle: a
// popped entry or a deferred re-arm still carrying it cannot put it back
// (Schedule.Remove), and its id may be registered again — to a new handle
// the old one cannot touch. Idempotent.
func (q *Query) Deregister() {
	e := q.eng
	e.mu.Lock()
	live := e.queries[q.id] == q
	if live {
		delete(e.queries, q.id)
	}
	e.mu.Unlock()
	if live {
		e.nq.Add(-1)
		e.sched.Remove(q)
	}
}

// PopDue removes and returns every temporal query whose next period
// boundary is at or before now, appended to buf in ascending (due, id)
// order. A popped query is the caller's to drive: each EvaluateDue
// re-arms it at its following boundary, so a clock driver loops
// EvaluateDue until the next boundary passes now and the schedule stays
// consistent. When no period is due the call is an O(1) peek — this is
// what makes an idle Advance independent of the subscriber count.
// A boundary whose popped queries will read every node about twice over gets
// a reading column before the batch is handed out (buildColumns). PopDue
// runs on one goroutine at a time and never beside an evaluation: it
// recycles the previous batch's columns, which evaluations read without a
// lock.
func (e *QueryEngine) PopDue(now sim.Time, buf []DueEntry) []DueEntry {
	n := len(buf)
	buf = e.sched.PopDue(now, buf)
	if len(buf) > n {
		e.buildColumns(buf[n:])
	}
	return buf
}

// buildColumns gives each boundary of a popped batch — a run of equal due,
// the batch being in (due, id) order — a reading column if its scans repay
// one, and retires the previous batch's: a boundary is popped once, and
// whatever evaluates it later folds directly. The scans will read about
// π·Σr²·nodes/area readings (offColumn queries none); a build costs one
// direct fold per node and a columned fold saves about 20 of a direct fold's
// 33 ns, so a column pays from two reads a node, given ids dense enough to
// index by. Its cell rows are built across the worker pool.
func (e *QueryEngine) buildColumns(batch []DueEntry) {
	n := 0
	for i := 0; i < len(batch); {
		due, r2 := batch[i].Due, 0.0
		for ; i < len(batch) && batch[i].Due == due; i++ {
			if q := batch[i].Query; !q.offColumn.Load() {
				r2 += q.radius * q.radius
			}
		}
		size := int(e.maxNode) + 1
		if math.Pi*r2 < 2*e.grid.Region().Area() || size > 2*e.grid.Len() {
			continue
		}
		if n == len(e.cols) {
			c := &readingColumn{}
			c.fill = func(_, cy int) { e.fillRow(c, cy) }
			e.cols = append(e.cols, c)
		}
		c := e.cols[n]
		n++
		c.due, c.at = due, slices.Grow(c.at[:0], size)[:size]
		_, rows := e.grid.CellCount()
		e.DispatchWorkers(rows, c.fill)
		e.colBuilds.Add(1)
	}
	if n > 0 || e.colLive > 0 {
		e.colLive = n
	}
}

// fillRow derives the reading of every node in cell row cy, under no
// freshness window: each query tests the entry against its own. A node lies
// in exactly one row, so PopDue's workers write disjoint entries, and no
// evaluation reads one before PopDue returns. The entry of an id the grid
// does not hold keeps what an earlier boundary left in it; with the index
// fixed, no scan meets such an id.
func (e *QueryEngine) fillRow(c *readingColumn, cy int) {
	cols, _ := e.grid.CellCount()
	for cx := 0; cx < cols; cx++ {
		e.grid.VisitCell(cx, cy, func(id int32, pos geom.Point) {
			if uint(id) < uint(len(c.at)) {
				c.at[id] = ReadingAt(e.sampler, e.fld, id, pos, c.due, 0)
			}
		})
	}
}

// column returns boundary due's live column, or nil when there is none.
func (e *QueryEngine) column(due sim.Time) *readingColumn {
	for _, c := range e.cols[:e.colLive] {
		if c.due == due {
			return c
		}
	}
	return nil
}

// ScheduleLen returns the number of queries armed in the due-period
// schedule: every live temporal query outside a pop-to-re-arm window.
func (e *QueryEngine) ScheduleLen() int { return e.sched.Len() }

// rearmEntry is one deferred schedule re-arm: query q's next boundary is
// due.
type rearmEntry struct {
	q   *Query
	due sim.Time
}

// RearmBatch collects deferred schedule re-arms. EvaluateDue appends to it
// instead of taking the schedule lock per query; FlushRearms then takes the
// lock once. One batch belongs to one worker at a time (it is not
// synchronized); create per-worker batches with NewRearmBatch and reuse
// them across Advance steps — a flushed batch is empty and allocation-free
// to refill.
type RearmBatch struct {
	entries []rearmEntry
}

// NewRearmBatch returns an empty re-arm batch.
func (e *QueryEngine) NewRearmBatch() *RearmBatch { return &RearmBatch{} }

// add records q's next boundary. Consecutive re-arms of the same query
// coalesce: when a driver drains several due periods of one query in a row,
// only the final boundary needs to reach the schedule.
func (rb *RearmBatch) add(q *Query, due sim.Time) {
	if n := len(rb.entries); n > 0 && rb.entries[n-1].q == q {
		rb.entries[n-1].due = due
		return
	}
	rb.entries = append(rb.entries, rearmEntry{q: q, due: due})
}

// FlushRearms applies every deferred re-arm in rb to the schedule under one
// lock hold and resets rb for reuse. Queries deregistered since their
// evaluation are skipped by the upsert itself (see Schedule.Remove).
func (e *QueryEngine) FlushRearms(rb *RearmBatch) {
	if len(rb.entries) == 0 {
		return
	}
	s := e.sched
	s.mu.Lock()
	for _, en := range rb.entries {
		s.upsert(en.q, en.due)
	}
	s.publishHead()
	s.mu.Unlock()
	// Zero the handles so a burst-sized batch doesn't pin closed queries for
	// the batch's (service-long) lifetime.
	clear(rb.entries)
	rb.entries = rb.entries[:0]
}

// UpdateWaypoint moves a user's query center (the user walked). It reports
// whether the query is registered.
func (e *QueryEngine) UpdateWaypoint(queryID uint32, pos geom.Point) bool {
	q := e.Lookup(queryID)
	if q != nil {
		q.mu.Lock()
		q.pos = pos
		q.mu.Unlock()
	}
	return q != nil
}

// QueryCount returns the number of registered live queries.
func (e *QueryEngine) QueryCount() int { return int(e.nq.Load()) }

// Queries returns the handles of the registered queries, sorted by id: the
// one registry a driver walks when it needs every live query (a sweep, a
// shutdown).
func (e *QueryEngine) Queries() []*Query {
	e.mu.Lock()
	out := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		out = append(out, q)
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b *Query) int { return cmp.Compare(a.id, b.id) })
	return out
}

// DispatchWorkers runs fn(worker, 0..n-1) across the engine's worker pool
// and returns when all calls have completed. Workers pull indices from a
// shared queue, so uneven per-user costs balance out; fn must be safe for
// concurrent invocation with distinct indices. The worker's index
// (0..Workers-1) is passed alongside the work index, so callers can hand
// each worker private scratch (a RearmBatch, an output lane) without
// synchronization. Which worker runs which index is nondeterministic; with
// one worker (or n<2) every call runs serially, in order, on worker 0. A
// fan-out of evaluations runs after PopDue returns, never beside it: PopDue
// builds its reading columns through this pool, and evaluations read them.
func (e *QueryEngine) DispatchWorkers(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := e.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// The run's state is recycled and its goroutines start from a func()
	// bound once, so a steady-state call — a column build inside PopDue —
	// allocates nothing; a concurrent caller makes its own.
	r := e.spare.Swap(nil)
	if r == nil {
		r = &dispatchRun{}
		r.loop = r.work
	}
	r.fn, r.n = fn, int64(n)
	r.next.Store(0)
	r.workers.Store(0)
	r.wg.Add(w)
	for k := 0; k < w; k++ {
		go r.loop()
	}
	r.wg.Wait()
	r.fn = nil
	e.spare.Store(r)
}

// dispatchRun is the shared state of one DispatchWorkers call.
type dispatchRun struct {
	fn      func(worker, i int)
	n       int64
	next    atomic.Int64
	workers atomic.Int64
	wg      sync.WaitGroup
	loop    func()
}

// work is one worker of the run: it takes a worker index, then work indices
// off the shared cursor until they run out.
func (r *dispatchRun) work() {
	defer r.wg.Done()
	worker := int(r.workers.Add(1) - 1)
	for i := r.next.Add(1) - 1; i < r.n; i = r.next.Add(1) - 1 {
		r.fn(worker, int(i))
	}
}
