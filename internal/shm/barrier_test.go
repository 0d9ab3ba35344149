package shm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierSingleParty(t *testing.T) {
	Parallel(1, func(tc *ThreadContext) {
		for i := 0; i < 100; i++ {
			tc.Barrier()
		}
	})
}

// TestBarrierPhases checks that no thread can start phase k+1 before every
// thread has finished phase k, across many reuse cycles of the team barrier.
func TestBarrierPhases(t *testing.T) {
	const threads = 8
	const phases = 200
	var inPhase atomic.Int64 // number of threads currently inside a phase
	Parallel(threads, func(tc *ThreadContext) {
		for k := 0; k < phases; k++ {
			if n := inPhase.Add(1); n > threads {
				t.Errorf("phase %d: %d threads inside, more than exist", k, n)
			}
			tc.Barrier()
			inPhase.Add(-1)
			tc.Barrier() // second barrier so decrements can't bleed into next phase
		}
	})
}

// TestBarrierCompletesTasks checks OpenMP's barrier rule: a barrier returns
// only once every task the team queued before it, and every task those
// spawned, has completed.
func TestBarrierCompletesTasks(t *testing.T) {
	const threads = 4
	const phases = 50
	var done atomic.Int64
	Parallel(threads, func(tc *ThreadContext) {
		for k := 1; k <= phases; k++ {
			tc.Task(func() {
				tc.Task(func() { done.Add(1) })
				done.Add(1)
			})
			tc.Barrier()
			if got, want := done.Load(), int64(2*threads*k); got != want {
				t.Errorf("thread %d, phase %d: %d tasks done after the barrier, want %d", tc.ThreadNum(), k, got, want)
			}
			tc.Barrier()
		}
	})
}

// TestBarrierNotReachedByAllPanics: a barrier that a thread returned past
// can never complete. Once every other thread waits in it and no task is
// left, the waiters wake and the region panics at the fork point, naming the
// waiting threads, the returned ones and the phase, with no timer: the 10 s
// bound only fails a row that hangs. The two-thread rows fix the order —
// the return counted before the barrier is entered, or the waiter parked
// before the other returns — and a task the returning thread left queued
// still runs first.
func TestBarrierNotReachedByAllPanics(t *testing.T) {
	var ran atomic.Bool
	returned := func(tc *ThreadContext) {
		for tc.team.join.returned.Load() == 0 {
			runtime.Gosched()
		}
	}
	parked := func(tc *ThreadContext) {
		s := tc.team.sched()
		for {
			s.mu.Lock()
			n := s.parked
			s.mu.Unlock()
			if n > 0 {
				return
			}
			runtime.Gosched()
		}
	}
	rows := []struct {
		name    string
		threads int
		body    func(tc *ThreadContext)
		want    string
		queues  bool // the returning thread leaves a task queued
	}{
		{"2 threads, return first", 2, func(tc *ThreadContext) {
			if tc.ThreadNum() == 1 {
				returned(tc)
				tc.Barrier()
			}
		}, "barrier of phase 0 can never complete: thread(s) [1] wait in it, thread(s) [0] returned", false},
		{"2 threads, wait first", 2, func(tc *ThreadContext) {
			if tc.ThreadNum() == 0 {
				parked(tc)
				return
			}
			tc.Barrier()
		}, "barrier of phase 0 can never complete: thread(s) [1] wait in it, thread(s) [0] returned", false},
		{"3 threads", 3, func(tc *ThreadContext) {
			tc.Barrier()
			if tc.ThreadNum() != 1 {
				tc.Barrier()
			}
		}, "barrier of phase 1 can never complete: thread(s) [0 2] wait in it, thread(s) [1] returned", false},
		{"3 threads, two return", 3, func(tc *ThreadContext) {
			if tc.ThreadNum() == 2 {
				tc.Barrier()
			}
		}, "barrier of phase 0 can never complete: thread(s) [2] wait in it, thread(s) [0 1] returned", false},
		{"task left queued", 2, func(tc *ThreadContext) {
			if tc.ThreadNum() == 0 {
				parked(tc)
				tc.Task(func() { ran.Store(true) })
				return
			}
			tc.Barrier()
		}, "barrier of phase 0 can never complete: thread(s) [1] wait in it, thread(s) [0] returned", true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ran.Store(false)
			recovered := make(chan any, 1)
			go func() {
				defer func() { recovered <- recover() }()
				Parallel(row.threads, row.body)
			}()
			select {
			case r := <-recovered:
				if !strings.Contains(fmt.Sprint(r), row.want) {
					t.Fatalf("recovered %v at the fork point, want %q", r, row.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the region did not return within 10 s")
			}
			if row.queues && !ran.Load() {
				t.Fatal("the queued task did not run before the panic")
			}
		})
	}
}
