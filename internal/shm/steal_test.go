package shm

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// engines builds one loop's shared state under each chunk-handout engine, so
// a test can drive both on the same input.
var engines = []struct {
	name  string
	state func(n, threads int) *loopState
}{
	{"stealing", func(n, threads int) *loopState { return &loopState{deques: stealDeques(n, threads)} }},
	{"counter", func(int, int) *loopState { return &loopState{} }},
}

// handedOut runs one loop on a team of nt threads and returns every chunk
// handed out, sorted by lower bound. A nil state lets the team pick the
// engine as a program's loop does; otherwise the Dynamic and Guided
// schedules share the loop state it builds.
func handedOut(nt, n int, sched Schedule, state func(n, threads int) *loopState) [][2]int {
	var ls *loopState
	if state != nil && (sched.Kind == ScheduleDynamic || sched.Kind == ScheduleGuided) {
		ls = state(n, nt)
	}
	var mu sync.Mutex
	var chunks [][2]int
	Parallel(nt, func(tc *ThreadContext) {
		record := func(lo, hi int) {
			mu.Lock()
			chunks = append(chunks, [2]int{lo, hi})
			mu.Unlock()
		}
		if ls != nil {
			tc.shareLoop(ls, n, sched, record)
		} else {
			tc.forRanges(n, sched, record)
		}
	})
	sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
	return chunks
}

// tiles reports whether chunks are non-empty and cover [0, n) exactly once.
func tiles(chunks [][2]int, n int) bool {
	next := 0
	for _, c := range chunks {
		if c[0] != next || c[1] <= c[0] {
			return false
		}
		next = c[1]
	}
	return next == n
}

// TestLoopEngineFollowsLoopSize: the loop bound alone picks the engine. On
// two threads a Dynamic(4) loop of 10 iterations is cut at the static block
// boundary 5 only by the stealing engine; the shared counter hands out
// [0,4) [4,8) [8,10). A loop of 2^31 iterations, which the packed ranges
// cannot hold, takes the counter: on three threads its 2^29-sized chunks
// stay aligned, where stealing would cut them at the thirds.
func TestLoopEngineFollowsLoopSize(t *testing.T) {
	const big = maxStealIters
	counter := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if got := handedOut(2, 10, Dynamic(4), nil); !tiles(got, 10) || reflect.DeepEqual(got, counter) {
		t.Errorf("10 iterations on 2 threads: chunks %v, want the stealing engine's cut at 5", got)
	}
	var aligned [][2]int
	for lo := 0; lo < big; lo += 1 << 29 {
		aligned = append(aligned, [2]int{lo, lo + 1<<29})
	}
	if got := handedOut(3, big, Dynamic(1<<29), nil); !reflect.DeepEqual(got, aligned) {
		t.Errorf("2^31 iterations on 3 threads: chunks %v, want the shared counter's %v", got, aligned)
	}
}

// TestGuidedChunkFloor is the table-driven pin on the guided chunk-size
// rule: chunks are remaining/(2·threads) floored at min, and the floor is
// honest at the tail — a grab never leaves fewer than min iterations
// stranded, so no handed-out chunk is ever smaller than min (unless the
// whole loop is).
func TestGuidedChunkFloor(t *testing.T) {
	cases := []struct {
		remaining, threads, min int
		want                    int
	}{
		// Plenty remaining: the classic remaining/(2·threads).
		{remaining: 1000, threads: 4, min: 1, want: 125},
		{remaining: 1000, threads: 1, min: 1, want: 500},
		{remaining: 64, threads: 2, min: 3, want: 16},
		// Floor engages: remaining/(2·threads) < min.
		{remaining: 20, threads: 4, min: 5, want: 5},
		{remaining: 10, threads: 8, min: 3, want: 3},
		// Tail-swallow: taking min would strand fewer than min, so the
		// grab takes everything (the seed implementation instead handed
		// out a sub-min final chunk here).
		{remaining: 4, threads: 4, min: 3, want: 4},
		{remaining: 5, threads: 2, min: 3, want: 5},
		{remaining: 7, threads: 8, min: 4, want: 7},
		// Exactly min left.
		{remaining: 3, threads: 4, min: 3, want: 3},
		// Fewer than min left in the whole loop: the unavoidable case.
		{remaining: 2, threads: 4, min: 5, want: 2},
		{remaining: 1, threads: 1, min: 1, want: 1},
		// Degenerate inputs.
		{remaining: 0, threads: 4, min: 3, want: 0},
		{remaining: 10, threads: 3, min: 0, want: 1}, // min clamps to 1
	}
	for _, c := range cases {
		got := guidedChunk(c.remaining, c.threads, c.min)
		if got != c.want {
			t.Errorf("guidedChunk(%d, %d, %d) = %d, want %d",
				c.remaining, c.threads, c.min, got, c.want)
		}
	}
}

// TestGuidedChunkFloorProperty sweeps remaining/threads/min combinations
// and asserts the two invariants directly: every chunk is at least
// min(min, remaining), and a grab never strands a sub-min tail.
func TestGuidedChunkFloorProperty(t *testing.T) {
	for remaining := 0; remaining <= 120; remaining++ {
		for _, threads := range []int{1, 2, 3, 4, 8, 16} {
			for _, min := range []int{1, 2, 3, 5, 8} {
				c := guidedChunk(remaining, threads, min)
				if remaining == 0 {
					if c != 0 {
						t.Fatalf("guidedChunk(0,%d,%d) = %d, want 0", threads, min, c)
					}
					continue
				}
				floor := min
				if remaining < floor {
					floor = remaining
				}
				if c < floor {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d below floor %d",
						remaining, threads, min, c, floor)
				}
				if c > remaining {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d exceeds remaining",
						remaining, threads, min, c)
				}
				if left := remaining - c; left > 0 && left < min {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d strands sub-min tail %d",
						remaining, threads, min, c, left)
				}
			}
		}
	}
}

// TestGuidedScheduleNeverHandsOutSubMinChunks runs real guided loops on
// both engines and checks every index is handed out exactly once.
func TestGuidedScheduleNeverHandsOutSubMinChunks(t *testing.T) {
	for _, e := range engines {
		for _, min := range []int{2, 3, 5} {
			for _, n := range []int{1, 7, 50, 257} {
				if got := handedOut(4, n, Guided(min), e.state); !tiles(got, n) {
					t.Fatalf("engine=%s min=%d n=%d: chunks %v do not tile [0,%d)", e.name, min, n, got, n)
				}
			}
		}
	}
}

// TestScheduleParityProperty is the randomized schedule-parity pin: for
// arbitrary (iterations, threads, chunk), every schedule kind — static,
// cyclic, dynamic, guided — covers every index exactly once under BOTH
// chunk-handout engines (work-stealing and the shared-counter baseline).
func TestScheduleParityProperty(t *testing.T) {
	prop := func(threadsRaw, nRaw, chunkRaw uint8, engineRaw bool) bool {
		threads := int(threadsRaw%8) + 1
		n := int(nRaw % 250)
		chunk := int(chunkRaw % 9)
		e := engines[0]
		if engineRaw {
			e = engines[1]
		}
		for kind := ScheduleStatic; kind <= ScheduleGuided; kind++ {
			if !tiles(handedOut(threads, n, Schedule{Kind: kind, Chunk: chunk}, e.state), n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkHandOutProperty is the chunk-level form of the parity pin: for
// every schedule kind on both engines, the chunks the engine hands out are
// non-empty and tile [0, n) exactly (disjoint, no gaps), and their sizes obey
// the schedule. Static hands each thread at most one block. Dynamic(k) never
// exceeds k; from the shared counter every chunk but the last is exactly k,
// while the stealing engine may also cut one short at the end of a thread's
// block or of a stolen half. Guided(m) from the shared counter never goes
// below m (the tail is swallowed, see guidedChunk); under stealing the floor
// holds per range, so it is asserted on a one-thread team, where the loop is
// one range.
func TestChunkHandOutProperty(t *testing.T) {
	scheds := []Schedule{Static(), ChunksOf1(), StaticChunk(3), Dynamic(1), Dynamic(4), Guided(1), Guided(3)}
	for _, e := range engines {
		for _, sched := range scheds {
			for nt := 1; nt <= 5; nt++ {
				for _, n := range []int{0, 1, 7, 64, 1001} {
					chunks := handedOut(nt, n, sched, e.state)
					label := fmt.Sprintf("engine=%s %v(%d) nt=%d n=%d", e.name, sched.Kind, sched.Chunk, nt, n)
					oneRange := e.name == "counter" || nt == 1
					next := 0
					for _, c := range chunks {
						if c[0] != next || c[1] <= c[0] {
							t.Fatalf("%s: chunk [%d,%d) after [..,%d): want non-empty chunks tiling [0,%d)", label, c[0], c[1], next, n)
						}
						next = c[1]
						size, last := c[1]-c[0], c[1] == n
						switch sched.Kind {
						case ScheduleStaticCyclic:
							if size != sched.Chunk && !last {
								t.Fatalf("%s: cyclic chunk of %d", label, size)
							}
						case ScheduleDynamic:
							if size > sched.Chunk || (oneRange && !last && size != sched.Chunk) {
								t.Fatalf("%s: dynamic chunk of %d", label, size)
							}
						case ScheduleGuided:
							if oneRange && size < min(sched.Chunk, n) {
								t.Fatalf("%s: guided chunk of %d below the minimum", label, size)
							}
						}
					}
					if next != n {
						t.Fatalf("%s: chunks cover [0,%d), want [0,%d)", label, next, n)
					}
					if sched.Kind == ScheduleStatic && len(chunks) != min(nt, n) {
						t.Fatalf("%s: %d static blocks, want %d", label, len(chunks), min(nt, n))
					}
				}
			}
		}
	}
}

// TestStealDequeTakeAndSteal unit-tests the packed-range deque: takes come
// off the low end, steals off the high half, and the two together drain the
// range exactly.
func TestStealDequeTakeAndSteal(t *testing.T) {
	var d stealDeque
	d.bounds.Store(packRange(10, 26))

	lo, hi, ok := d.take(func(int) int { return 4 })
	if !ok || lo != 10 || hi != 14 {
		t.Fatalf("take = [%d,%d) ok=%v, want [10,14) true", lo, hi, ok)
	}
	lo, hi, ok = d.steal()
	if !ok || lo != 20 || hi != 26 {
		t.Fatalf("steal = [%d,%d) ok=%v, want [20,26) true", lo, hi, ok)
	}
	// Remaining range is [14,20): drain it.
	seen := 0
	for {
		lo, hi, ok = d.take(func(int) int { return 3 })
		if !ok {
			break
		}
		seen += hi - lo
	}
	if seen != 6 {
		t.Fatalf("drained %d iterations after take+steal, want 6", seen)
	}
	if _, _, ok := d.steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
	// A one-iteration range is stolen whole.
	d.bounds.Store(packRange(5, 6))
	lo, hi, ok = d.steal()
	if !ok || lo != 5 || hi != 6 {
		t.Fatalf("steal of singleton = [%d,%d) ok=%v, want [5,6) true", lo, hi, ok)
	}
}

// TestStealLoopBalancesImbalancedWork gives thread 0's initial block all
// the expensive iterations and checks other threads end up executing some
// of them: the stealing must actually move work.
func TestStealLoopBalancesImbalancedWork(t *testing.T) {
	const threads, n = 4, 64
	owner := make([]int, n)
	var mu sync.Mutex
	busy := func(i int) {
		// Iterations in thread 0's initial static block [0, 16) are slow.
		if i < n/threads {
			for j := 0; j < 200_000; j++ {
				_ = j * j
			}
		}
	}
	ParallelFor(threads, n, Dynamic(1), func(i int) {
		busy(i)
		mu.Lock()
		owner[i] = -1 // mark executed; ownership checked via trace below
		mu.Unlock()
	})
	for i, o := range owner {
		if o != -1 {
			t.Fatalf("iteration %d never ran", i)
		}
	}
	// Ownership distribution: re-run with owner recording. The slow block
	// belongs to thread 0's initial range; with stealing, at least one slow
	// iteration should migrate to another thread on a multi-run sample.
	migrated := false
	for attempt := 0; attempt < 5 && !migrated; attempt++ {
		Parallel(threads, func(tc *ThreadContext) {
			tc.For(n, Dynamic(1), func(i int) {
				busy(i)
				mu.Lock()
				owner[i] = tc.ThreadNum()
				mu.Unlock()
			})
		})
		for i := 0; i < n/threads; i++ {
			if owner[i] != 0 {
				migrated = true
			}
		}
	}
	if !migrated {
		t.Log("no slow iteration migrated off thread 0 in 5 runs (plausible on 1 CPU); not failing")
	}
}

// The chunk_handout_ns comparison: per-iteration cost of an empty
// Dynamic(1) loop under each engine at several team widths.
func benchChunkHandout(b *testing.B, threads int, state func(n, threads int) *loopState) {
	const n = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ls := state(n, threads)
		Parallel(threads, func(tc *ThreadContext) {
			tc.shareLoop(ls, n, Dynamic(1), func(int, int) {})
		})
	}
}

func BenchmarkChunkHandoutStealing2T(b *testing.B)  { benchChunkHandout(b, 2, engines[0].state) }
func BenchmarkChunkHandoutCounter2T(b *testing.B)   { benchChunkHandout(b, 2, engines[1].state) }
func BenchmarkChunkHandoutStealing8T(b *testing.B)  { benchChunkHandout(b, 8, engines[0].state) }
func BenchmarkChunkHandoutCounter8T(b *testing.B)   { benchChunkHandout(b, 8, engines[1].state) }
func BenchmarkChunkHandoutStealing16T(b *testing.B) { benchChunkHandout(b, 16, engines[0].state) }
func BenchmarkChunkHandoutCounter16T(b *testing.B)  { benchChunkHandout(b, 16, engines[1].state) }
