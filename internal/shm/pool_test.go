package shm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ParallelSpawn is Parallel implemented the pre-pool way, kept from the seed
// runtime as the baseline BenchmarkRegionLaunchSpawn sets the pooled
// dispatcher against: the difference between the two is exactly what a
// persistent thread team buys an OpenMP runtime. Each region pays for a
// fresh goroutine per thread and constructs the full team state
// (scheduler, critical/single tables, ordered state) eagerly, as the seed
// did. Semantics are identical to Parallel, including panic propagation.
func ParallelSpawn(numThreads int, body func(tc *ThreadContext)) {
	n := resolveThreads(numThreads)
	join := &regionJoin{panics: make([]any, n), ended: make([]bool, n)}
	t := &team{size: n, join: join}
	// Eager team construction, as in the seed implementation.
	t.sched()
	t.orderedState()
	t.mu.Lock()
	t.criticals = make(map[string]*sync.Mutex)
	t.singles = make(map[string]bool)
	t.mu.Unlock()

	join.wg.Add(n)
	for id := 0; id < n; id++ {
		go func(id int) {
			defer join.wg.Done()
			runMember(workItem{tc: &ThreadContext{id: id, team: t}, body: body, join: join})
		}(id)
	}
	join.wg.Wait()
	join.rethrow()
}

// TestParallelSpawnMatchesParallel pins that the spawn-per-region baseline
// and the pooled dispatcher implement the same construct: distinct,
// complete thread ids and a full join.
func TestParallelSpawnMatchesParallel(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		seen := make([]bool, n)
		var mu sync.Mutex
		ParallelSpawn(n, func(tc *ThreadContext) {
			if tc.NumThreads() != n {
				t.Errorf("NumThreads() = %d, want %d", tc.NumThreads(), n)
			}
			mu.Lock()
			seen[tc.ThreadNum()] = true
			mu.Unlock()
		})
		for id, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: thread %d never ran", n, id)
			}
		}
	}
}

func TestParallelSpawnPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in spawn region did not propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("propagated panic %q does not mention original value", r)
		}
	}()
	ParallelSpawn(4, func(tc *ThreadContext) {
		if tc.ThreadNum() == 1 {
			panic("boom")
		}
		tc.Barrier()
	})
}

// TestPoolWorkersAreReused runs many regions back to back and checks the
// goroutine count stays bounded: regions must be re-dispatching onto parked
// workers, not leaking a fresh goroutine set per region.
func TestPoolWorkersAreReused(t *testing.T) {
	const teamSize = 8
	// Warm the pool.
	for i := 0; i < 4; i++ {
		Parallel(teamSize, func(tc *ThreadContext) {})
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		Parallel(teamSize, func(tc *ThreadContext) {})
	}
	after := runtime.NumGoroutine()
	// Workers park between regions, so the population must not grow with
	// the region count. Allow slack for unrelated test goroutines.
	if after > before+teamSize {
		t.Fatalf("goroutines grew from %d to %d over 200 regions: workers not reused", before, after)
	}
}

// TestPoolSurvivesPanickedRegion pins that a panic in a region does not
// poison pool workers: subsequent regions run normally.
func TestPoolSurvivesPanickedRegion(t *testing.T) {
	for round := 0; round < 3; round++ {
		func() {
			defer func() { recover() }()
			Parallel(4, func(tc *ThreadContext) {
				if tc.ThreadNum() == 2 {
					panic("poison attempt")
				}
				tc.Barrier()
			})
		}()
		var count atomic.Int64
		Parallel(4, func(tc *ThreadContext) {
			count.Add(1)
			tc.Barrier()
		})
		if count.Load() != 4 {
			t.Fatalf("round %d: region after panic ran %d threads, want 4", round, count.Load())
		}
	}
}

// TestNestedParallelDoesNotDeadlockPool exercises nesting deeper than the
// parked-worker count would allow if acquisition could block: every level
// must be able to assemble its team.
func TestNestedParallelDoesNotDeadlockPool(t *testing.T) {
	var leaves atomic.Int64
	Parallel(3, func(outer *ThreadContext) {
		Parallel(3, func(mid *ThreadContext) {
			Parallel(2, func(inner *ThreadContext) {
				leaves.Add(1)
				inner.Barrier()
			})
			mid.Barrier()
		})
		outer.Barrier()
	})
	if leaves.Load() != 3*3*2 {
		t.Fatalf("leaf bodies ran %d times, want 18", leaves.Load())
	}
}

// TestTeamSizeRule pins the package's single thread-count clamping rule
// (the one Parallel, ParallelFor, and the reductions all share): positive
// counts are taken literally, everything else resolves to the SetNumThreads
// default, which itself defaults to GOMAXPROCS.
func TestTeamSizeRule(t *testing.T) {
	if got := TeamSize(5); got != 5 {
		t.Fatalf("TeamSize(5) = %d, want 5", got)
	}
	if got := TeamSize(1); got != 1 {
		t.Fatalf("TeamSize(1) = %d, want 1", got)
	}
	SetNumThreads(0) // reset to GOMAXPROCS
	for _, n := range []int{0, -1, -100} {
		if got := TeamSize(n); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("TeamSize(%d) = %d, want GOMAXPROCS = %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
	SetNumThreads(3)
	defer SetNumThreads(0)
	if got := TeamSize(-7); got != 3 {
		t.Fatalf("TeamSize(-7) with default 3 = %d, want 3", got)
	}
	// And the constructs respect it end to end.
	var count atomic.Int64
	Parallel(-7, func(tc *ThreadContext) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("Parallel(-7) ran %d threads, want 3", count.Load())
	}
	covered := make([]int, 10)
	var mu sync.Mutex
	ParallelFor(-2, 10, Static(), func(i int) {
		mu.Lock()
		covered[i]++
		mu.Unlock()
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("ParallelFor(-2): index %d ran %d times", i, c)
		}
	}
}

// What a region launch costs through the pooled dispatcher vs a fresh
// goroutine set per region.
func benchRegionLaunch(b *testing.B, launch func(int, func(*ThreadContext))) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		launch(4, func(tc *ThreadContext) {})
	}
}

func BenchmarkRegionLaunchPooled(b *testing.B) { benchRegionLaunch(b, Parallel) }
func BenchmarkRegionLaunchSpawn(b *testing.B)  { benchRegionLaunch(b, ParallelSpawn) }
