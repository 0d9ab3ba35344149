package shm

import (
	"sync"
	"sync/atomic"
)

// ThreadContext is the per-thread view of a parallel region. It plays the
// role of OpenMP's implicit thread state (omp_get_thread_num and friends)
// plus the region-scoped synchronization constructs.
//
// A ThreadContext is only valid inside the region body it was passed to.
type ThreadContext struct {
	id   int
	team *team
}

// team holds the state shared by all threads of one parallel region.
//
// Every field beyond size and join is created lazily, on first use, because
// region launch is the runtime's hottest path: a region that never calls
// Barrier, Critical, Single, Ordered, or Task should not pay for their
// state. The scheduler is published through an atomic pointer so the fast
// path after creation is one atomic load.
type team struct {
	size int
	join *regionJoin

	sch atomic.Pointer[sched]

	mu        sync.Mutex
	criticals map[string]*sync.Mutex
	singles   map[string]bool
	ordered   *orderedState

	// Work-sharing loop state (see team.loopEnter in steal.go).
	loop *loopState
}

type orderedState struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

// sched returns the team's scheduler (barrier and tasks), creating it on
// first use.
func (t *team) sched() *sched {
	if s := t.sch.Load(); s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.sch.Load(); s != nil {
		return s
	}
	s := &sched{size: t.size, join: t.join}
	s.cond.L = &s.mu
	t.sch.Store(s)
	return s
}

// orderedState returns the team's ordered-construct state, creating it on
// first use.
func (t *team) orderedState() *orderedState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ordered == nil {
		t.ordered = &orderedState{}
		t.ordered.cond = sync.NewCond(&t.ordered.mu)
	}
	return t.ordered
}

// Parallel forks a team of numThreads threads, runs body in each of them,
// and joins the team before returning: the OpenMP "parallel" construct.
// The thread count is resolved by TeamSize (numThreads <= 0 uses the
// SetNumThreads default).
//
// Dispatch goes through the persistent worker pool (pool.go): thread 0 is
// the calling goroutine itself — as in OpenMP, where the encountering thread
// becomes the team master — and threads 1..n-1 are parked pool workers, so
// a region launch costs n-1 channel handoffs rather than n goroutine
// creations.
//
// A panic inside any team member is captured and re-raised on the caller's
// goroutine after the rest of the team has been allowed to finish, so a bug
// in region code surfaces as an ordinary panic at the fork point rather than
// crashing the program (or poisoning a pool worker). If several threads
// panic, the lowest-numbered thread's panic wins.
func Parallel(numThreads int, body func(tc *ThreadContext)) {
	n := resolveThreads(numThreads)
	r := getRegion(n)
	join := &r.join
	join.wg.Add(n - 1)
	for id := 1; id < n; id++ {
		w := acquireWorker()
		w.ch <- workItem{tc: &r.ctxs[id], body: body, join: join}
	}
	runMember(workItem{tc: &r.ctxs[0], body: body, join: join})
	join.wg.Wait()
	if join.panicked {
		join.rethrow()
	}
	putRegion(r)
}

// ThreadNum reports this thread's id within its team, 0-based: the analogue
// of omp_get_thread_num.
func (tc *ThreadContext) ThreadNum() int { return tc.id }

// NumThreads reports the team size: the analogue of omp_get_num_threads.
func (tc *ThreadContext) NumThreads() int { return tc.team.size }

// Barrier blocks until every thread in the team has reached it and every
// task the team has queued has completed: the "#pragma omp barrier"
// construct. It is a task scheduling point: a thread waiting in it runs
// queued tasks, oldest first. Like Taskwait it belongs in region code,
// never inside a task body.
func (tc *ThreadContext) Barrier() { tc.team.sched().barrier() }

// Critical executes fn while holding the team's named critical-section lock,
// so at most one thread of the team runs fn (for a given name) at a time:
// "#pragma omp critical(name)". The empty name designates the anonymous
// critical section, as in OpenMP.
func (tc *ThreadContext) Critical(name string, fn func()) {
	tc.team.mu.Lock()
	if tc.team.criticals == nil {
		tc.team.criticals = make(map[string]*sync.Mutex)
	}
	m, ok := tc.team.criticals[name]
	if !ok {
		m = new(sync.Mutex)
		tc.team.criticals[name] = m
	}
	tc.team.mu.Unlock()

	m.Lock()
	defer m.Unlock()
	fn()
}

// Master runs fn only on thread 0, without any implied synchronization:
// "#pragma omp master".
func (tc *ThreadContext) Master(fn func()) {
	if tc.id == 0 {
		fn()
	}
}

// Single runs fn on exactly one thread of the team — whichever reaches the
// construct first — and makes every thread wait at an implicit barrier until
// fn and the tasks it spawned have completed: "#pragma omp single". The
// waiting threads run those tasks. The name distinguishes separate
// single constructs encountered in the same region; reusing a name in a loop
// requires a distinct name per iteration (or use SingleNowait semantics via
// Master + Barrier).
func (tc *ThreadContext) Single(name string, fn func()) {
	tc.team.mu.Lock()
	if tc.team.singles == nil {
		tc.team.singles = make(map[string]bool)
	}
	claimed := tc.team.singles[name]
	if !claimed {
		tc.team.singles[name] = true
	}
	tc.team.mu.Unlock()

	if !claimed {
		fn()
	}
	tc.Barrier()
}

// Sections distributes the given function sections among the team's threads,
// each section executing exactly once, and joins the team at an implicit
// barrier afterwards: "#pragma omp sections". Sections are handed out
// round-robin by thread id, so with as many threads as sections each thread
// runs one section, as in the classic patternlet.
func (tc *ThreadContext) Sections(sections ...func()) {
	for i := tc.id; i < len(sections); i += tc.team.size {
		sections[i]()
	}
	tc.Barrier()
}

// Ordered runs fn for loop iteration i only after it has run for all earlier
// iterations: a simplified "#pragma omp ordered". Iterations must be handed
// to Ordered exactly once each, starting from the value the state was reset
// to (0 for a fresh region).
func (tc *ThreadContext) Ordered(i int, fn func()) {
	o := tc.team.orderedState()
	o.mu.Lock()
	for o.next != i {
		o.cond.Wait()
	}
	o.mu.Unlock()

	fn()

	o.mu.Lock()
	o.next = i + 1
	o.cond.Broadcast()
	o.mu.Unlock()
}
