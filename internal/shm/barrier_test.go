package shm

import (
	"sync/atomic"
	"testing"
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
