package patternlets

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/shm"
)

// The shared-memory catalog: Go renderings of the OpenMP patternlets the
// Raspberry Pi module works through, in the module's teaching order. Each
// Run function is deliberately as short as its C original — brevity is the
// point of a patternlet.

func init() {
	register(Patternlet{
		Name:     "spmd",
		Paradigm: SharedMemory,
		Pattern:  "SPMD, Fork-Join",
		Summary:  "fork a team of threads; each prints its id and the team size",
		Explanation: "The single-program-multiple-data pattern: one body of code " +
			"runs on every thread of a forked team. Thread identity " +
			"(ThreadNum) and team size (NumThreads) let each thread behave " +
			"differently. Output order varies run to run — the first lesson " +
			"in nondeterminism.",
		Exercise: "Run it several times. Does the output order repeat? Change the team size.",
		RunShared: func(w io.Writer, numThreads int) error {
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				fmt.Fprintf(w, "Hello from thread %d of %d\n", tc.ThreadNum(), tc.NumThreads())
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "forkJoin",
		Paradigm: SharedMemory,
		Pattern:  "Fork-Join",
		Summary:  "sequential code, a parallel region, then sequential code again",
		Explanation: "Execution forks into a team at the top of a parallel region " +
			"and joins back to one thread at the bottom. Code before and " +
			"after the region is sequential.",
		Exercise: "Add a second parallel region and observe two fork-join phases.",
		RunShared: func(w io.Writer, numThreads int) error {
			fmt.Fprintln(w, "Before...")
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				fmt.Fprintln(w, "During...")
			})
			fmt.Fprintln(w, "After.")
			return nil
		},
	})

	register(Patternlet{
		Name:     "barrier",
		Paradigm: SharedMemory,
		Pattern:  "Barrier (synchronization)",
		Summary:  "every thread finishes part A before any thread starts part B",
		Explanation: "A barrier makes all threads wait until the whole team " +
			"arrives. All 'BEFORE' lines print before any 'AFTER' line.",
		Exercise: "Remove the barrier: do BEFORE and AFTER lines interleave now?",
		RunShared: func(w io.Writer, numThreads int) error {
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				fmt.Fprintf(w, "BEFORE the barrier: thread %d\n", tc.ThreadNum())
				tc.Barrier()
				fmt.Fprintf(w, "AFTER the barrier: thread %d\n", tc.ThreadNum())
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "masterOnly",
		Paradigm: SharedMemory,
		Pattern:  "Master-Worker (thread 0 coordination)",
		Summary:  "only the master thread executes a designated block",
		Explanation: "Inside a parallel region, the master construct restricts a " +
			"block to thread 0 — the usual home of I/O and bookkeeping.",
		Exercise: "Move the master block before the team print: does ordering change?",
		RunShared: func(w io.Writer, numThreads int) error {
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.Master(func() {
					fmt.Fprintf(w, "Master thread %d of %d reporting\n", tc.ThreadNum(), tc.NumThreads())
				})
				fmt.Fprintf(w, "Thread %d is alive\n", tc.ThreadNum())
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "singleExecution",
		Paradigm: SharedMemory,
		Pattern:  "Single (one-time work)",
		Summary:  "exactly one thread — whichever arrives first — runs a block",
		Explanation: "single differs from master in two ways: any thread may run " +
			"the block, and every thread waits at an implicit barrier until " +
			"the block completes.",
		Exercise: "Run repeatedly: is it always the same thread that wins?",
		RunShared: func(w io.Writer, numThreads int) error {
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.Single("announce", func() {
					fmt.Fprintf(w, "Thread %d won the race to do the one-time work\n", tc.ThreadNum())
				})
				fmt.Fprintf(w, "Thread %d continues after the single\n", tc.ThreadNum())
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "parallelLoopEqualChunks",
		Paradigm: SharedMemory,
		Pattern:  "Parallel Loop (block decomposition)",
		Summary:  "each thread takes one contiguous block of the iterations",
		Explanation: "The default static schedule splits the iteration range into " +
			"one equal chunk per thread: good when every iteration costs the " +
			"same.",
		Exercise: "Change REPS so it doesn't divide evenly: who gets the extras?",
		RunShared: func(w io.Writer, numThreads int) error {
			const reps = 8
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.For(reps, shm.Static(), func(i int) {
					fmt.Fprintf(w, "Thread %d performed iteration %d\n", tc.ThreadNum(), i)
				})
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "parallelLoopChunksOf1",
		Paradigm: SharedMemory,
		Pattern:  "Parallel Loop (cyclic decomposition)",
		Summary:  "iterations are dealt to threads round-robin, one at a time",
		Explanation: "schedule(static,1) deals iterations like cards: thread t " +
			"gets iterations t, t+N, t+2N, ... Useful when cost grows with " +
			"the iteration index.",
		Exercise: "Compare which thread runs iteration 5 here versus equal chunks.",
		RunShared: func(w io.Writer, numThreads int) error {
			const reps = 8
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.For(reps, shm.ChunksOf1(), func(i int) {
					fmt.Fprintf(w, "Thread %d performed iteration %d\n", tc.ThreadNum(), i)
				})
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "dynamicSchedule",
		Paradigm: SharedMemory,
		Pattern:  "Parallel Loop (dynamic scheduling)",
		Summary:  "threads grab the next iteration when free: load balancing",
		Explanation: "With imbalanced iteration costs, static schedules leave " +
			"threads idle. A dynamic schedule hands out work first-come " +
			"first-served, so fast threads take more iterations.",
		Exercise: "Make iteration cost uniform: does dynamic still win?",
		RunShared: func(w io.Writer, numThreads int) error {
			const reps = 16
			counts := shm.NewPrivate(resolveTeam(numThreads), 0)
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.For(reps, shm.Dynamic(1), func(i int) {
					// Iteration i costs O(i): the imbalance that motivates
					// dynamic scheduling.
					busyWork(i * 2000)
					*counts.Get(tc)++
				})
			})
			for id, n := range counts.Values() {
				fmt.Fprintf(w, "Thread %d performed %d iterations\n", id, n)
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "raceCondition",
		Paradigm: SharedMemory,
		Pattern:  "Race Condition (the problem)",
		Summary:  "unsynchronized updates to a shared counter lose increments",
		Explanation: "Each thread adds 1 to a shared balance many times using a " +
			"read-modify-write that is not atomic. Increments are lost " +
			"whenever two threads interleave inside the update — the bug the " +
			"handout's Section 2.3 teaches. (The Go rendering performs the " +
			"racy read and write through atomics with a scheduling point " +
			"between them, so the lost-update behaviour is identical but the " +
			"program stays well-defined under the Go memory model.)",
		Exercise: "Predict the final balance, run it, and explain the difference.",
		RunShared: func(w io.Writer, numThreads int) error {
			const perThread = 1000
			var balance atomic.Int64
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				for i := 0; i < perThread; i++ {
					old := balance.Load()  // read...
					runtime.Gosched()      // (another thread may interleave here)
					balance.Store(old + 1) // ...modify-write: not atomic as a whole
				}
			})
			expected := int64(resolveTeam(numThreads)) * perThread
			fmt.Fprintf(w, "Expected balance: %d\n", expected)
			fmt.Fprintf(w, "Actual balance:   %d\n", balance.Load())
			if got := balance.Load(); got != expected {
				fmt.Fprintf(w, "Lost %d updates to the race condition!\n", expected-got)
			} else {
				fmt.Fprintln(w, "No updates lost this run -- but the race is still there. Run it again!")
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "mutualExclusion",
		Paradigm: SharedMemory,
		Pattern:  "Mutual Exclusion (critical sections)",
		Summary:  "a critical section makes the shared update safe",
		Explanation: "Wrapping the read-modify-write in a critical section lets " +
			"only one thread at a time execute it, fixing the race at the " +
			"cost of serializing the update.",
		Exercise: "Time this against raceCondition and atomicUpdate: what does safety cost?",
		RunShared: func(w io.Writer, numThreads int) error {
			const perThread = 1000
			balance := 0
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				for i := 0; i < perThread; i++ {
					tc.Critical("balance", func() {
						balance++
					})
				}
			})
			fmt.Fprintf(w, "Expected balance: %d\n", resolveTeam(numThreads)*perThread)
			fmt.Fprintf(w, "Actual balance:   %d\n", balance)
			return nil
		},
	})

	register(Patternlet{
		Name:     "atomicUpdate",
		Paradigm: SharedMemory,
		Pattern:  "Mutual Exclusion (atomic operations)",
		Summary:  "a hardware atomic add fixes the race more cheaply",
		Explanation: "For simple updates (add, max) an atomic instruction is both " +
			"correct and much cheaper than a critical section.",
		Exercise: "Replace the add with a multiply: can atomic still express it?",
		RunShared: func(w io.Writer, numThreads int) error {
			const perThread = 1000
			var balance shm.AtomicInt64
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				for i := 0; i < perThread; i++ {
					balance.Add(1)
				}
			})
			fmt.Fprintf(w, "Expected balance: %d\n", resolveTeam(numThreads)*perThread)
			fmt.Fprintf(w, "Actual balance:   %d\n", balance.Load())
			return nil
		},
	})

	register(Patternlet{
		Name:     "reduction",
		Paradigm: SharedMemory,
		Pattern:  "Reduction",
		Summary:  "per-thread partial results combined once at loop end",
		Explanation: "A reduction gives each thread a private accumulator and " +
			"combines the partials when the loop joins: no races, no " +
			"per-iteration synchronization. This is the idiomatic fix for " +
			"accumulation races.",
		Exercise: "Switch the operation to max. What changes?",
		RunShared: func(w io.Writer, numThreads int) error {
			const n = 1000
			sum := shm.ParallelForReduceInt64(numThreads, n, shm.Static(), shm.OpSum,
				func(i int) int64 { return int64(i + 1) })
			fmt.Fprintf(w, "Sum of 1..%d computed in parallel: %d\n", n, sum)
			fmt.Fprintf(w, "Closed form n(n+1)/2:             %d\n", n*(n+1)/2)
			return nil
		},
	})

	register(Patternlet{
		Name:     "sections",
		Paradigm: SharedMemory,
		Pattern:  "Task Parallelism (sections)",
		Summary:  "different threads run different code blocks concurrently",
		Explanation: "Unlike a parallel loop (same code, different data), sections " +
			"give each thread different code: elementary task parallelism.",
		Exercise: "Add a fifth section with only four threads: who runs it?",
		RunShared: func(w io.Writer, numThreads int) error {
			task := func(name string) func() {
				return func() { fmt.Fprintf(w, "Section %s executed\n", name) }
			}
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.Sections(task("A"), task("B"), task("C"), task("D"))
			})
			return nil
		},
	})

	register(Patternlet{
		Name:     "taskParallelism",
		Paradigm: SharedMemory,
		Pattern:  "Task Parallelism (explicit tasks)",
		Summary:  "one thread creates tasks; the whole team executes them",
		Explanation: "Explicit tasks handle irregular work that loops cannot " +
			"express: one thread discovers and submits units of work, and " +
			"every thread reaching a task-scheduling point helps execute " +
			"them. Here one thread submits a task per item inside Single, " +
			"and the other threads start running them at Single's implicit " +
			"barrier, which returns only once every task is done. Taskwait " +
			"is the scheduling point to use where no barrier follows.",
		Exercise: "Make tasks spawn sub-tasks. Does Taskwait still cover them all?",
		RunShared: func(w io.Writer, numThreads int) error {
			const items = 6
			var processed shm.AtomicInt64
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				tc.Single("spawn", func() {
					for i := 0; i < items; i++ {
						i := i
						tc.Task(func() {
							fmt.Fprintf(w, "Task %d executed\n", i)
							processed.Add(1)
						})
					}
				})
				tc.Taskwait()
			})
			fmt.Fprintf(w, "All %d tasks complete\n", processed.Load())
			return nil
		},
	})

	register(Patternlet{
		Name:     "privateVariable",
		Paradigm: SharedMemory,
		Pattern:  "Private Variables",
		Summary:  "per-thread variables eliminate sharing where none is needed",
		Explanation: "Scratch variables must be private to each thread; a shared " +
			"loop index is a classic bug. In Go, declaring variables inside " +
			"the region closure makes them private; shm.Private collects " +
			"per-thread values for after the join.",
		Exercise: "Hoist the accumulator out of the closure and observe the damage.",
		RunShared: func(w io.Writer, numThreads int) error {
			team := resolveTeam(numThreads)
			squares := shm.NewPrivate(team, 0)
			shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
				mine := tc.ThreadNum() // private: declared inside the region
				*squares.Get(tc) = mine * mine
			})
			for id, sq := range squares.Values() {
				fmt.Fprintf(w, "Thread %d computed %d\n", id, sq)
			}
			return nil
		},
	})
}

// resolveTeam mirrors the runtime's team-size resolution for patternlets
// that need the count before forking.
func resolveTeam(numThreads int) int {
	if numThreads <= 0 {
		return shm.MaxThreads()
	}
	return numThreads
}

// busyWork spins for roughly n units; sink defeats dead-code elimination.
var sink atomic.Int64

func busyWork(n int) {
	s := int64(0)
	for i := 0; i < n; i++ {
		s += int64(i % 7)
	}
	sink.Store(s)
}
