package shm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The persistent worker pool behind Parallel. OpenMP implementations do not
// create OS threads per parallel region: the first region forks a thread
// team, and later regions re-dispatch onto the parked team. This file gives
// the goroutine runtime the same shape — a region launch hands work items to
// already-running, parked workers instead of paying goroutine creation,
// stack setup, and teardown per region — and recycles the per-region state
// (team, join, thread contexts) through a sync.Pool so a steady stream of
// regions allocates nothing.

// maxParked bounds how many idle workers stay parked. Workers beyond the
// bound exit after finishing their region, so a one-off wide region (say a
// 64-thread teaching demo on a 4-core Pi) does not pin 64 goroutines
// forever. The bound is a soft cap on idle capacity, not on team width:
// acquire always spawns when the free list is empty, so a region can always
// assemble any team size, and nested regions can never deadlock waiting for
// a worker.
const maxParked = 64

// workItem is one thread's share of a parallel region. The context points
// into the region's preallocated context block.
type workItem struct {
	tc   *ThreadContext
	body func(*ThreadContext)
	join *regionJoin
}

// regionJoin collects a region's completion and panic state.
type regionJoin struct {
	wg sync.WaitGroup
	// panics[id] holds the value recovered from thread id, if any; task
	// holds the first value recovered from an explicit task; panicked flags
	// that some slot is set.
	panics   []any
	task     any
	panicked bool // writes guarded by panicMu; read after wg.Wait
	panicMu  sync.Mutex
	// ended[id] is set once thread id's body has returned normally, and
	// returned counts it after that.
	ended    []bool
	returned atomic.Int32
}

// record stores r in slot, one of j's panic slots, unless the slot is
// already set.
func (j *regionJoin) record(slot *any, r any) {
	j.panicMu.Lock()
	if *slot == nil {
		*slot = r
	}
	j.panicked = true
	j.panicMu.Unlock()
}

// rethrow re-raises the lowest-numbered thread's panic at the fork point,
// or else a task's, matching the semantics documented on Parallel.
func (j *regionJoin) rethrow() {
	for id, p := range j.panics {
		if p != nil {
			panic(fmt.Sprintf("shm: panic in parallel region (thread %d): %v", id, p))
		}
	}
	if j.task != nil {
		panic(fmt.Sprintf("shm: panic in parallel region (task): %v", j.task))
	}
}

// region bundles everything one parallel region allocates, so the whole
// bundle can be recycled: the team, the join state, and the per-thread
// contexts (one contiguous block instead of one heap object per thread).
type region struct {
	t    team
	join regionJoin
	ctxs []ThreadContext
}

var regionPool sync.Pool

// getRegion produces a region configured for an n-thread team, reusing a
// recycled one when the capacity fits.
func getRegion(n int) *region {
	r, _ := regionPool.Get().(*region)
	if r == nil {
		r = &region{}
	}
	// Reset the team field by field: the struct embeds a mutex, so a
	// wholesale copy would trip vet (and copy atomic state).
	r.t.size = n
	r.t.join = &r.join
	r.t.sch.Store(nil)
	r.t.criticals = nil
	r.t.singles = nil
	r.t.ordered = nil
	r.t.loop = nil
	if cap(r.join.panics) < n {
		r.join.panics, r.join.ended = make([]any, n), make([]bool, n)
	} else {
		r.join.panics, r.join.ended = r.join.panics[:n], r.join.ended[:n]
		clear(r.join.ended)
	}
	r.join.task = nil
	r.join.panicked = false
	r.join.returned.Store(0)
	if cap(r.ctxs) < n {
		r.ctxs = make([]ThreadContext, n)
	}
	r.ctxs = r.ctxs[:n]
	for i := range r.ctxs {
		r.ctxs[i] = ThreadContext{id: i, team: &r.t}
	}
	return r
}

// putRegion recycles a region whose join has fully drained. Regions that
// saw a panic are not recycled: the panic values should not linger in the
// pool.
func putRegion(r *region) {
	if r.join.panicked {
		return
	}
	regionPool.Put(r)
}

// worker is one parked pool member. Its channel has capacity 1 so dispatch
// never blocks the launching goroutine on the worker's wakeup.
type worker struct {
	ch chan workItem
}

var workerPool struct {
	mu   sync.Mutex
	free []*worker
}

// acquireWorker pops a parked worker, or spawns a fresh one when the pool is
// empty. Spawning instead of waiting keeps acquisition non-blocking, which
// is what makes nested parallel regions deadlock-free.
func acquireWorker() *worker {
	workerPool.mu.Lock()
	if n := len(workerPool.free); n > 0 {
		w := workerPool.free[n-1]
		workerPool.free[n-1] = nil
		workerPool.free = workerPool.free[:n-1]
		workerPool.mu.Unlock()
		return w
	}
	workerPool.mu.Unlock()
	w := &worker{ch: make(chan workItem, 1)}
	go w.loop()
	return w
}

// loop is the worker body: run a region share, park, repeat. The worker
// re-parks itself *before* signalling the join so the next region launched
// by the unblocked caller finds it on the free list immediately.
func (w *worker) loop() {
	for item := range w.ch {
		runMember(item)
		workerPool.mu.Lock()
		parked := len(workerPool.free) < maxParked
		if parked {
			workerPool.free = append(workerPool.free, w)
		}
		workerPool.mu.Unlock()
		item.join.wg.Done()
		if !parked {
			return
		}
	}
}

// runMember executes one thread's region body with the panic containment
// Parallel documents: the panic is captured for re-raise at the fork point,
// and the thread leaves the team so sibling threads blocked in a barrier
// are not stranded. A body that returns is counted before the team's
// scheduler is looked up, so a barrier entered at any time sees it: a
// scheduler made after the lookup reads the count, and one made before it
// is told.
func runMember(item workItem) {
	defer func() {
		if r := recover(); r != nil {
			item.join.record(&item.join.panics[item.tc.id], r)
			item.tc.team.sched().leave()
		}
	}()
	item.body(item.tc)
	item.join.ended[item.tc.id] = true
	item.join.returned.Add(1)
	if s := item.tc.team.sch.Load(); s != nil {
		s.returned()
	}
}
