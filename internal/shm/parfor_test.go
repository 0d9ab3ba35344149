package shm

import (
	"sync"
	"testing"
	"testing/quick"
)

// coverage runs a loop of n iterations with the given schedule/threads and
// returns how many times each index was executed.
func coverage(t *testing.T, threads, n int, sched Schedule) []int {
	t.Helper()
	counts := make([]int, n)
	var mu sync.Mutex
	ParallelFor(threads, n, sched, func(i int) {
		if i < 0 || i >= n {
			t.Errorf("iteration index %d out of range [0,%d)", i, n)
			return
		}
		mu.Lock()
		counts[i]++
		mu.Unlock()
	})
	return counts
}

func checkExactlyOnce(t *testing.T, counts []int, label string) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: index %d executed %d times, want 1", label, i, c)
		}
	}
}

func TestParallelForCoversAllSchedules(t *testing.T) {
	schedules := map[string]Schedule{
		"static":      Static(),
		"chunksOf1":   ChunksOf1(),
		"staticChunk": StaticChunk(3),
		"dynamic1":    Dynamic(1),
		"dynamic7":    Dynamic(7),
		"guided":      Guided(2),
	}
	for name, sched := range schedules {
		for _, threads := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, 2, 5, 16, 101} {
				counts := coverage(t, threads, n, sched)
				checkExactlyOnce(t, counts, name)
			}
		}
	}
}

// TestParallelForExactlyOnceProperty is the testing/quick form of the core
// invariant: for any (threads, n, schedule, chunk), every iteration runs
// exactly once.
func TestParallelForExactlyOnceProperty(t *testing.T) {
	prop := func(threadsRaw, nRaw, kindRaw, chunkRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		n := int(nRaw % 200)
		kind := ScheduleKind(kindRaw % 4)
		sched := Schedule{Kind: kind, Chunk: int(chunkRaw % 9)}

		counts := make([]int, n)
		var mu sync.Mutex
		ParallelFor(threads, n, sched, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRangePartitionsExactly(t *testing.T) {
	prop := func(nRaw uint16, threadsRaw uint8) bool {
		n := int(nRaw % 1000)
		threads := int(threadsRaw%16) + 1
		prevHi := 0
		total := 0
		for th := 0; th < threads; th++ {
			lo, hi := StaticRange(n, th, threads)
			if lo != prevHi { // ranges must tile [0,n) contiguously
				return false
			}
			if hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return prevHi == n && total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Fixed inputs the random draw may miss: empty parts (1 row over 8
	// ranks) and the row counts the forest-fire slabs are tested on.
	for _, n := range []int{1, 3, 10, 64} {
		for _, threads := range []int{1, 2, 5, 8} {
			if !prop(uint16(n), uint8(threads-1)) {
				t.Fatalf("n=%d threads=%d: ranges do not tile [0,n)", n, threads)
			}
		}
	}
}

func TestStaticRangeBalance(t *testing.T) {
	// No thread's share may exceed any other's by more than one iteration.
	for _, n := range []int{0, 1, 7, 100, 101, 103} {
		for _, threads := range []int{1, 2, 3, 4, 7} {
			min, max := n+1, -1
			for th := 0; th < threads; th++ {
				lo, hi := StaticRange(n, th, threads)
				size := hi - lo
				if size < min {
					min = size
				}
				if size > max {
					max = size
				}
			}
			if max-min > 1 {
				t.Fatalf("n=%d threads=%d: chunk sizes range %d..%d", n, threads, min, max)
			}
		}
	}
}

func TestChunksOf1IsCyclic(t *testing.T) {
	// With the chunks-of-1 schedule, thread th must execute exactly the
	// iterations congruent to th modulo the team size — that is the whole
	// point of the "parallel loop, chunks of 1" patternlet.
	const threads, n = 4, 23
	owner := make([]int, n)
	var mu sync.Mutex
	Parallel(threads, func(tc *ThreadContext) {
		tc.For(n, ChunksOf1(), func(i int) {
			mu.Lock()
			owner[i] = tc.ThreadNum()
			mu.Unlock()
		})
	})
	for i, th := range owner {
		if th != i%threads {
			t.Fatalf("iteration %d ran on thread %d, want %d", i, th, i%threads)
		}
	}
}

func TestStaticIsContiguousPerThread(t *testing.T) {
	const threads, n = 4, 100
	owner := make([]int, n)
	var mu sync.Mutex
	Parallel(threads, func(tc *ThreadContext) {
		tc.For(n, Static(), func(i int) {
			mu.Lock()
			owner[i] = tc.ThreadNum()
			mu.Unlock()
		})
	})
	// Owners must be non-decreasing across the index space.
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static schedule not contiguous: owner[%d]=%d < owner[%d]=%d",
				i, owner[i], i-1, owner[i-1])
		}
	}
}

func TestForImpliesBarrier(t *testing.T) {
	const threads, n = 4, 64
	counts := make([]int, n)
	var mu sync.Mutex
	Parallel(threads, func(tc *ThreadContext) {
		tc.For(n, Dynamic(1), func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		// After For's implicit barrier, every iteration must be complete.
		mu.Lock()
		for i, c := range counts {
			if c != 1 {
				t.Errorf("thread %d passed For barrier with iteration %d at count %d",
					tc.ThreadNum(), i, c)
			}
		}
		mu.Unlock()
	})
}

func TestConsecutiveWorkSharingConstructs(t *testing.T) {
	// Two dynamic loops back-to-back in one region must each get a fresh
	// iteration counter.
	const threads, n = 4, 50
	a := make([]int, n)
	b := make([]int, n)
	var mu sync.Mutex
	Parallel(threads, func(tc *ThreadContext) {
		tc.For(n, Dynamic(3), func(i int) {
			mu.Lock()
			a[i]++
			mu.Unlock()
		})
		tc.For(n, Dynamic(3), func(i int) {
			mu.Lock()
			b[i]++
			mu.Unlock()
		})
	})
	for i := 0; i < n; i++ {
		if a[i] != 1 || b[i] != 1 {
			t.Fatalf("iteration %d: first loop %d times, second loop %d times", i, a[i], b[i])
		}
	}
}

func TestParallelForZeroAndNegativeN(t *testing.T) {
	ran := false
	ParallelFor(4, 0, Static(), func(i int) { ran = true })
	ParallelFor(4, -5, Static(), func(i int) { ran = true })
	if ran {
		t.Fatal("body ran for an empty iteration space")
	}
}

func TestParallelForMoreThreadsThanIterations(t *testing.T) {
	counts := coverage(t, 16, 3, Static())
	checkExactlyOnce(t, counts, "threads>n")
}
