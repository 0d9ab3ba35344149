package shm

import "testing"

// The handout's Section 2.4 exercise: "Time raceCondition, mutualExclusion,
// and atomicUpdate with 4 threads. Which fix is cheapest?" These benchmarks
// are that timing study for the two safe fixes plus the reduction.

func BenchmarkSharedCounterCritical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counter := 0
		Parallel(4, func(tc *ThreadContext) {
			for j := 0; j < 1000; j++ {
				tc.Critical("counter", func() { counter++ })
			}
		})
		if counter != 4000 {
			b.Fatal("lost updates")
		}
	}
}

func BenchmarkSharedCounterAtomic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var counter AtomicInt64
		Parallel(4, func(tc *ThreadContext) {
			for j := 0; j < 1000; j++ {
				counter.Add(1)
			}
		})
		if counter.Load() != 4000 {
			b.Fatal("lost updates")
		}
	}
}

func BenchmarkSharedCounterReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := ParallelForReduceInt64(4, 4000, Static(), OpSum, func(int) int64 { return 1 })
		if total != 4000 {
			b.Fatal("lost updates")
		}
	}
}

func BenchmarkSharedCounterLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var l Lock
		counter := 0
		Parallel(4, func(tc *ThreadContext) {
			for j := 0; j < 1000; j++ {
				l.With(func() { counter++ })
			}
		})
		if counter != 4000 {
			b.Fatal("lost updates")
		}
	}
}

// Schedule overhead on an empty loop body: what each distribution strategy
// costs before any useful work happens.
func benchScheduleOverhead(b *testing.B, sched Schedule) {
	for i := 0; i < b.N; i++ {
		Parallel(4, func(tc *ThreadContext) {
			tc.For(1024, sched, func(int) {})
		})
	}
}

func BenchmarkScheduleOverheadStatic(b *testing.B)  { benchScheduleOverhead(b, Static()) }
func BenchmarkScheduleOverheadCyclic(b *testing.B)  { benchScheduleOverhead(b, ChunksOf1()) }
func BenchmarkScheduleOverheadDynamic(b *testing.B) { benchScheduleOverhead(b, Dynamic(1)) }
func BenchmarkScheduleOverheadGuided(b *testing.B)  { benchScheduleOverhead(b, Guided(1)) }

// Guided-schedule CAS contention: many threads racing for tiny chunks of an
// empty loop, the worst case for the claim loop in shareLoop. The guided
// grab shrinks toward minChunk=1 near the end of the iteration space, so
// every thread hammers the shared counter at once; the Gosched on CAS
// failure is what keeps 8- and 16-thread teams from serializing on the
// cache line.
func benchGuidedContention(b *testing.B, threads int) {
	for i := 0; i < b.N; i++ {
		Parallel(threads, func(tc *ThreadContext) {
			tc.For(4096, Guided(1), func(int) {})
		})
	}
}

func BenchmarkGuidedContention2T(b *testing.B)  { benchGuidedContention(b, 2) }
func BenchmarkGuidedContention8T(b *testing.B)  { benchGuidedContention(b, 8) }
func BenchmarkGuidedContention16T(b *testing.B) { benchGuidedContention(b, 16) }

func BenchmarkSingleConstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Parallel(4, func(tc *ThreadContext) {
			tc.Single("s", func() {})
		})
	}
}

func BenchmarkTaskGroupFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Parallel(4, func(tc *ThreadContext) {
			tc.Single("spawn", func() {
				g := tc.NewTaskGroup()
				for j := 0; j < 32; j++ {
					g.Go(func() {})
				}
				g.Wait()
			})
			tc.Taskwait()
		})
	}
}
