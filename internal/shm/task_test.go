package shm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTasksRunExactlyOnce(t *testing.T) {
	const tasks = 200
	var counts [tasks]atomic.Int64
	Parallel(4, func(tc *ThreadContext) {
		tc.Master(func() {
			for i := 0; i < tasks; i++ {
				i := i
				tc.Task(func() { counts[i].Add(1) })
			}
		})
		tc.Taskwait()
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestTaskwaitWaitsForNestedTasks(t *testing.T) {
	var done atomic.Int64
	Parallel(4, func(tc *ThreadContext) {
		// Single's implicit barrier already completes the task tree; the
		// Taskwait after it must find nothing left and return.
		tc.Single("spawn", func() {
			// A task that spawns tasks that spawn tasks.
			tc.Task(func() {
				for i := 0; i < 5; i++ {
					tc.Task(func() {
						tc.Task(func() { done.Add(1) })
						done.Add(1)
					})
				}
				done.Add(1)
			})
		})
		tc.Taskwait()
		// After Taskwait every transitively spawned task must be complete.
		if got := done.Load(); got != 11 {
			t.Errorf("thread %d passed Taskwait with %d/11 tasks done", tc.ThreadNum(), got)
		}
	})
}

func TestTasksExecuteAcrossThreads(t *testing.T) {
	// With tasks that block mid-execution and every thread in Taskwait,
	// several threads must be inside task bodies at once — each thread
	// drains one task at a time, so in-flight concurrency > 1 proves
	// multiple threads executed tasks. (Tasks block on a channel, so this
	// needs no physical cores.)
	const tasks = 8
	gate := make(chan struct{})
	var inFlight, maxInFlight atomic.Int64
	Parallel(4, func(tc *ThreadContext) {
		tc.Single("spawn", func() {
			for i := 0; i < tasks; i++ {
				tc.Task(func() {
					n := inFlight.Add(1)
					for {
						cur := maxInFlight.Load()
						if n <= cur || maxInFlight.CompareAndSwap(cur, n) {
							break
						}
					}
					<-gate
					inFlight.Add(-1)
				})
			}
			// Release the tasks only after at least two are in flight, so
			// an eager releaser can't let one thread drain everything
			// serially.
			go func() {
				for inFlight.Load() < 2 {
					runtime.Gosched()
				}
				for i := 0; i < tasks; i++ {
					gate <- struct{}{}
				}
			}()
		})
		tc.Taskwait()
	})
	if maxInFlight.Load() < 2 {
		t.Fatalf("max in-flight tasks = %d; tasks never overlapped across threads", maxInFlight.Load())
	}
}

func TestFibonacciWithTaskGroups(t *testing.T) {
	// The canonical task example: recursive Fibonacci with a sequential
	// cutoff, blocking inside task bodies via TaskGroup (Taskwait would
	// self-deadlock there).
	var fib func(tc *ThreadContext, n int) int64
	fib = func(tc *ThreadContext, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		if n < 10 { // sequential cutoff
			return fib(tc, n-1) + fib(tc, n-2)
		}
		var a int64
		g := tc.NewTaskGroup()
		g.Go(func() { a = fib(tc, n-1) })
		b := fib(tc, n-2)
		g.Wait()
		return a + b
	}

	var result int64
	Parallel(4, func(tc *ThreadContext) {
		tc.Single("fib", func() {
			result = fib(tc, 20)
		})
		tc.Taskwait()
	})
	if result != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", result)
	}
}

func TestTaskGroupWaitsOnlyForItsOwnTasks(t *testing.T) {
	// A group's Wait must return once ITS tasks are done, even while an
	// unrelated task is still blocked. The unrelated task is queued first
	// and the group's second, so the other thread, taking the oldest task
	// at its scheduling point, can only block in the unrelated one, and
	// the waiter, taking the newest, finds its own. (A barrier between the
	// spawns would be a scheduling point that waits for the blocked task.)
	release := make(chan struct{})
	var groupDone atomic.Int64
	Parallel(2, func(tc *ThreadContext) {
		if tc.ThreadNum() == 0 {
			tc.Task(func() { <-release }) // unrelated, blocked
			g := tc.NewTaskGroup()
			g.Go(func() { groupDone.Add(1) })
			g.Wait()
			if groupDone.Load() != 1 {
				t.Error("group Wait returned before its task completed")
			}
			close(release) // now let the unrelated task finish
		}
		tc.Taskwait()
	})
}

// TestSingleBarrierRunsTasks pins that Single's implicit barrier is a task
// scheduling point: the thread waiting in it runs the spawner's task while
// the spawner is still inside Single.
func TestSingleBarrierRunsTasks(t *testing.T) {
	Parallel(2, func(tc *ThreadContext) {
		tc.Single("spawn", func() {
			started := make(chan struct{})
			tc.Task(func() { close(started) })
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Error("the task did not start while its spawner was inside Single")
			}
		})
	})
}

// TestTaskPanicPropagates pins that a panicking task retires, so the
// threads waiting for it return, and that its panic re-raises at the fork
// point. Each row gives the region 10 s, so a hang fails the row.
func TestTaskPanicPropagates(t *testing.T) {
	rows := []struct {
		name string
		body func(tc *ThreadContext)
	}{
		{"taskwait", func(tc *ThreadContext) {
			tc.Master(func() {
				tc.Task(func() { panic("boom") })
				tc.Task(func() {})
			})
			tc.Taskwait()
		}},
		{"group", func(tc *ThreadContext) {
			tc.Master(func() {
				g := tc.NewTaskGroup()
				g.Go(func() { panic("boom") })
				g.Go(func() {})
				g.Wait()
			})
			tc.Taskwait()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			recovered := make(chan any, 1)
			go func() {
				defer func() { recovered <- recover() }()
				Parallel(2, row.body)
			}()
			select {
			case r := <-recovered:
				if !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("recovered %v at the fork point, want the task's panic", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the region did not return within 10 s")
			}
		})
	}
}

func TestNestedTaskGroups(t *testing.T) {
	var total atomic.Int64
	Parallel(4, func(tc *ThreadContext) {
		tc.Single("root", func() {
			outer := tc.NewTaskGroup()
			for i := 0; i < 4; i++ {
				outer.Go(func() {
					inner := tc.NewTaskGroup()
					for j := 0; j < 4; j++ {
						inner.Go(func() { total.Add(1) })
					}
					inner.Wait()
					total.Add(10)
				})
			}
			outer.Wait()
			if got := total.Load(); got != 4*4+4*10 {
				t.Errorf("after outer.Wait: total = %d, want 56", got)
			}
		})
		tc.Taskwait()
	})
}

func TestTaskCountProperty(t *testing.T) {
	prop := func(nRaw, threadsRaw uint8) bool {
		n := int(nRaw % 100)
		threads := int(threadsRaw%6) + 1
		var ran atomic.Int64
		Parallel(threads, func(tc *ThreadContext) {
			tc.ForNowait(n, ChunksOf1(), func(i int) {
				tc.Task(func() { ran.Add(1) })
			})
			tc.Taskwait()
		})
		return ran.Load() == int64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
