package shm

import (
	"fmt"
	"sync"
)

// Explicit tasks, the OpenMP 3.0 construct ("#pragma omp task" /
// "#pragma omp taskwait") for irregular parallelism — recursive
// decomposition, work generated while working — which work-sharing loops
// cannot express. Every task scheduling point — a barrier (Single's,
// Sections' and For's included), Taskwait and TaskGroup.Wait — is one idle
// loop over the team's one deque: return if done, otherwise run a queued
// task, otherwise park. A group waiter takes the newest task (depth first);
// a barrier or Taskwait takes the oldest, the largest subtree. Task bodies
// capture their spawner's ThreadContext, so the runtime cannot tell which
// thread runs a task, and per-thread deques would all fill on the spawner's.

// task is one deque entry; group is nil for a plain Task.
type task struct {
	fn    func()
	group *TaskGroup
}

// sched is the team's scheduler. Its mutex and cond guard the barrier's
// count and phase, the task deque (oldest first) and the outstanding-task
// count.
type sched struct {
	mu   sync.Mutex
	cond sync.Cond
	size int
	join *regionJoin

	arrived     int    // threads at the current barrier
	phase       uint64 // barriers tripped so far
	parked      int    // threads in cond.Wait
	tasks       []task
	outstanding int    // queued + running tasks
	stuck       string // set when the barrier can never trip: its waiters panic with it
}

// push queues t. Signalling one parked thread is enough: every waiter runs
// any task, and a waiter that returns without one instead was woken by the
// broadcast that ended its wait (a barrier trip or a retire that emptied
// its group or the team).
func (s *sched) push(t task) {
	s.mu.Lock()
	if t.group != nil {
		t.group.pending++
	}
	s.tasks = append(s.tasks, t)
	s.outstanding++
	if s.parked > 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// take dequeues the newest or the oldest task; s.mu is held. The last task
// always leaves from the back, which keeps the buffer for the next push.
func (s *sched) take(newest bool) (t task, ok bool) {
	n := len(s.tasks)
	if n == 0 {
		return task{}, false
	}
	if newest || n == 1 {
		t, s.tasks[n-1] = s.tasks[n-1], task{}
		s.tasks = s.tasks[:n-1]
	} else {
		t, s.tasks[0] = s.tasks[0], task{}
		s.tasks = s.tasks[1:]
	}
	return t, true
}

// run executes t outside the lock and retires it. A panicking task still
// retires, so its waiters return, and the panic is recorded in the region's
// join for Parallel to re-raise at the fork point.
func (s *sched) run(t task) {
	s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			s.join.record(&s.join.task, r)
		}
		s.mu.Lock()
		s.outstanding--
		wake := s.outstanding == 0
		if g := t.group; g != nil {
			g.pending--
			wake = wake || g.pending == 0
		}
		if !s.trip() && wake && s.parked > 0 {
			s.cond.Broadcast()
		}
	}()
	t.fn()
}

// trip ends the barrier phase if every thread has arrived and no task is
// outstanding, and reports whether it did; s.mu is held. A thread whose
// body returned never arrives: once every other thread waits and no task is
// left to run, the barrier can never trip, and trip marks it stuck instead.
func (s *sched) trip() bool {
	if s.outstanding > 0 {
		return false
	}
	if s.arrived < s.size {
		if n := int(s.join.returned.Load()); n > 0 && s.arrived > 0 && s.arrived == s.size-n {
			s.stuckLocked()
		}
		return false
	}
	s.arrived = 0
	s.phase++
	if s.parked > 0 {
		s.cond.Broadcast()
	}
	return true
}

// wait is every scheduling point's idle loop, entered and left with s.mu
// held: return if done, otherwise run a queued task if there is one,
// otherwise park. g is the group a TaskGroup.Wait waits for, nil elsewhere.
func (s *sched) wait(g *TaskGroup, done func() bool) {
	for !done() {
		if t, ok := s.take(g != nil); ok {
			s.run(t)
			continue
		}
		s.parked++
		s.cond.Wait()
		s.parked--
	}
}

// stuckLocked names the threads that returned from the region and those
// that wait in the barrier (the rest: the ones that panicked have left),
// and wakes the waiters; s.mu is held.
func (s *sched) stuckLocked() {
	var waiting, returned []int
	s.join.panicMu.Lock()
	for id, p := range s.join.panics {
		if s.join.ended[id] {
			returned = append(returned, id)
		} else if p == nil {
			waiting = append(waiting, id)
		}
	}
	s.join.panicMu.Unlock()
	s.stuck = fmt.Sprintf("shm: barrier of phase %d can never complete: thread(s) %v wait in it, thread(s) %v returned from the region", s.phase, waiting, returned)
	if s.parked > 0 {
		s.cond.Broadcast()
	}
}

// barrier is the team barrier: it returns once every thread has arrived
// and no task is outstanding, and panics if that can never happen.
func (s *sched) barrier() {
	s.mu.Lock()
	s.arrived++
	phase := s.phase
	s.trip()
	s.wait(nil, func() bool { return s.stuck != "" || s.phase != phase })
	stuck := s.stuck
	s.mu.Unlock()
	if stuck != "" {
		panic(stuck)
	}
}

// leave takes a thread whose body panicked out of the team, so that the
// surviving threads' barriers stop waiting for it.
func (s *sched) leave() {
	s.mu.Lock()
	s.size--
	s.trip()
	s.mu.Unlock()
}

// returned checks, once a thread's body has returned, whether a barrier its
// siblings wait in can still complete.
func (s *sched) returned() {
	s.mu.Lock()
	s.trip()
	s.mu.Unlock()
}

// Task submits fn for deferred execution by the team: "#pragma omp task".
// The task runs on whichever team thread next reaches a task scheduling
// point (a barrier, Taskwait or a task-group Wait), possibly this one.
// Tasks may create further tasks.
func (tc *ThreadContext) Task(fn func()) { tc.team.sched().push(task{fn: fn}) }

// Taskwait executes queued team tasks and blocks until every task —
// including tasks spawned by tasks — has completed: a team-scope
// "#pragma omp taskwait". A barrier does the same and also waits for the
// other threads, so Taskwait is for a thread that must see the team's tasks
// done without waiting for its siblings.
//
// Taskwait must be called from region code, never from inside a task body:
// a task waiting for "all tasks" would be waiting for itself. Recursive
// patterns that need to block inside a task use TaskGroup, whose Wait
// tracks only the group's own children.
func (tc *ThreadContext) Taskwait() {
	s := tc.team.sched()
	s.mu.Lock()
	s.wait(nil, func() bool { return s.outstanding == 0 })
	s.mu.Unlock()
}

// TaskGroup tracks a set of related tasks so their creator can wait for
// exactly those tasks: the OpenMP "taskgroup" construct. Unlike Taskwait,
// Wait may be called from inside a task body — while waiting it executes
// other queued team tasks (help-first scheduling), so recursive
// decompositions such as divide-and-conquer cannot deadlock.
type TaskGroup struct {
	s       *sched
	pending int // guarded by s.mu
}

// NewTaskGroup creates an empty group on the team's scheduler.
func (tc *ThreadContext) NewTaskGroup() *TaskGroup {
	return &TaskGroup{s: tc.team.sched()}
}

// Go submits fn as a task belonging to this group.
func (g *TaskGroup) Go(fn func()) { g.s.push(task{fn: fn, group: g}) }

// Wait blocks until every task submitted to this group has completed,
// executing queued team tasks (from any group, newest first) in the
// meantime.
func (g *TaskGroup) Wait() {
	s := g.s
	s.mu.Lock()
	s.wait(g, func() bool { return g.pending == 0 })
	s.mu.Unlock()
}
