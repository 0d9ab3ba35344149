package shm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestReduceOpStrings(t *testing.T) {
	cases := map[ReduceOp]string{OpSum: "+", OpProd: "*", OpMax: "max", OpMin: "min"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(op), got, want)
		}
	}
	if got := ReduceOp(99).String(); got != "?" {
		t.Errorf("unknown op String() = %q, want ?", got)
	}
}

func TestScheduleKindStrings(t *testing.T) {
	for _, k := range []ScheduleKind{ScheduleStatic, ScheduleStaticCyclic, ScheduleDynamic, ScheduleGuided} {
		if k.String() == "" {
			t.Errorf("schedule kind %d has empty String()", k)
		}
	}
	if got := ScheduleKind(42).String(); got != "ScheduleKind(42)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	const n = 10000
	want := 0.0
	for i := 0; i < n; i++ {
		want += float64(i)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		got := ParallelForReduceFloat64(threads, n, Static(), OpSum, func(i int) float64 {
			return float64(i)
		})
		if got != want {
			t.Fatalf("threads=%d: sum = %v, want %v", threads, got, want)
		}
	}
}

func TestReduceIntOpsMatchSequential(t *testing.T) {
	vals := []int64{5, -3, 12, 0, 7, -20, 44, 3, 3, 9, -1, 18}
	n := len(vals)
	seq := func(op ReduceOp) int64 {
		acc := op.identityInt64()
		for _, v := range vals {
			switch op {
			case OpSum:
				acc += v
			case OpMax:
				acc = max(acc, v)
			case OpMin:
				acc = min(acc, v)
			}
		}
		return acc
	}
	for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
		want := seq(op)
		got := ParallelForReduceInt64(4, n, Dynamic(2), op, func(i int) int64 { return vals[i] })
		if got != want {
			t.Fatalf("op %v: got %d, want %d", op, got, want)
		}
	}
}

func TestReduceProd(t *testing.T) {
	got := ParallelForReduceInt64(3, 10, Static(), OpProd, func(i int) int64 { return int64(i) + 1 })
	if got != 3628800 { // 10!
		t.Fatalf("10! = %d, want 3628800", got)
	}
}

func TestReduceEmptyRangeReturnsIdentity(t *testing.T) {
	if got := ParallelForReduceFloat64(4, 0, Static(), OpSum, nil); got != 0 {
		t.Fatalf("empty sum = %v, want 0", got)
	}
	if got := ParallelForReduceFloat64(4, 0, Static(), OpMax, nil); !math.IsInf(got, -1) {
		t.Fatalf("empty max = %v, want -Inf", got)
	}
	if got := ParallelForReduceInt64(4, 0, Static(), OpMin, nil); got != math.MaxInt64 {
		t.Fatalf("empty int min = %v, want MaxInt64", got)
	}
}

// TestReduceIntProperty: parallel integer sum equals sequential sum for
// arbitrary inputs, thread counts, and schedules.
func TestReduceIntProperty(t *testing.T) {
	prop := func(vals []int64, threadsRaw, kindRaw uint8) bool {
		threads := int(threadsRaw%6) + 1
		sched := Schedule{Kind: ScheduleKind(kindRaw % 4), Chunk: 2}
		var want int64
		for _, v := range vals {
			want += v
		}
		got := ParallelForReduceInt64(threads, len(vals), sched, OpSum, func(i int) int64 {
			return vals[i]
		})
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMaxMinProperty(t *testing.T) {
	prop := func(vals []int64, threadsRaw uint8) bool {
		threads := int(threadsRaw%6) + 1
		if len(vals) == 0 {
			return true
		}
		wantMax, wantMin := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v > wantMax {
				wantMax = v
			}
			if v < wantMin {
				wantMin = v
			}
		}
		gotMax := ParallelForReduceInt64(threads, len(vals), ChunksOf1(), OpMax, func(i int) int64 { return vals[i] })
		gotMin := ParallelForReduceInt64(threads, len(vals), ChunksOf1(), OpMin, func(i int) int64 { return vals[i] })
		return gotMax == wantMax && gotMin == wantMin
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelReduceRegionLevel covers the whole-region reductions: one
// partial per thread, combined after the join.
func TestParallelReduceRegionLevel(t *testing.T) {
	for _, nt := range []int{1, 2, 4, 7} {
		got := ParallelReduceInt64(nt, OpSum, func(tc *ThreadContext) int64 {
			return int64(tc.ThreadNum()) + 1
		})
		want := int64(nt*(nt+1)) / 2
		if got != want {
			t.Fatalf("nt=%d: region sum = %d, want %d", nt, got, want)
		}
		gotMax := ParallelReduceFloat64(nt, OpMax, func(tc *ThreadContext) float64 {
			return float64(tc.ThreadNum())
		})
		if gotMax != float64(nt-1) {
			t.Fatalf("nt=%d: region max = %v, want %v", nt, gotMax, float64(nt-1))
		}
	}
	// The TeamSize rule applies: non-positive counts use the default.
	SetNumThreads(3)
	defer SetNumThreads(0)
	if got := ParallelReduceInt64(-1, OpSum, func(*ThreadContext) int64 { return 1 }); got != 3 {
		t.Fatalf("ParallelReduceInt64(-1) with default 3 = %d, want 3", got)
	}
}

// The per-iteration cost of a reduction: the typed fast path
// (register accumulation + one padded-slot write per chunk) against the
// pre-existing strategy of one AtomicFloat64 CAS-retry Add per iteration.
const reduceBenchN = 1 << 15

func BenchmarkReduceTypedFloat64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got := ParallelForReduceFloat64(4, reduceBenchN, Static(), OpSum, func(i int) float64 {
			return float64(i)
		})
		if got == 0 {
			b.Fatal("bad sum")
		}
	}
}

func BenchmarkReduceAtomicFloat64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var acc AtomicFloat64
		ParallelFor(4, reduceBenchN, Static(), func(i int) {
			acc.Add(float64(i))
		})
		if acc.Load() == 0 {
			b.Fatal("bad sum")
		}
	}
}

// TestRaceConditionPatternlet demonstrates the pedagogical race: the naive
// shared counter loses updates while the reduction never does. We cannot
// assert the racy version always loses updates (it may get lucky), but the
// reduction side must be exact — this is the invariant the race-condition
// patternlet teaches.
func TestRaceConditionFixedByReduction(t *testing.T) {
	const n = 100000
	got := ParallelForReduceInt64(8, n, Static(), OpSum, func(i int) int64 { return 1 })
	if got != n {
		t.Fatalf("reduction counter = %d, want %d", got, n)
	}
}

// TestReductionGoldenBits: the per-thread fold order (each thread folds its
// chunks in hand-out order, the slots fold in thread order) is part of the
// reduction's contract, so a rewrite of the loop engine must reproduce every
// result bit. One FNV-64a per team size over OpSum/Prod/Max/Min under both
// deterministic schedules; the constants were computed at the commit before
// the chunk-granular engine (PR 15's tree).
func TestReductionGoldenBits(t *testing.T) {
	const n = 1001
	body := func(i int) float64 { return 1 + math.Sin(float64(i))/64 }
	golden := map[int]uint64{
		1: 0xe37a760b03d6dce9,
		2: 0xd05f32a2fd60d83c,
		3: 0xdd4e4befcb441ce1,
		4: 0x3487f5ab8fc3eb98,
	}
	for nt, want := range golden {
		h := fnv.New64a()
		for _, sched := range []Schedule{Static(), StaticChunk(3)} {
			for _, op := range []ReduceOp{OpSum, OpProd, OpMax, OpMin} {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(ParallelForReduceFloat64(nt, n, sched, op, body)))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("nt=%d: result bits hash to %#x, want %#x", nt, got, want)
		}
	}
}

// TestReductionFoldsPerChunk: the reduction must sit on the engine's chunk
// callback, not on the public per-index wrappers — the fold's index loop is
// foldRange's own, entered once per chunk the engine hands out
// (TestChunkHandOutProperty counts those: Static on nt threads is nt
// callbacks). Seen from inside body, that is a call chain of
// body ← foldRange ← forRanges with no ForNowait in between.
func TestReductionFoldsPerChunk(t *testing.T) {
	for _, sched := range []Schedule{Static(), Dynamic(2)} {
		var chain []string
		ParallelForReduceFloat64(1, 4, sched, OpSum, func(i int) float64 {
			if i == 0 {
				pcs := make([]uintptr, 16)
				frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
				for more := true; more; {
					var f runtime.Frame
					f, more = frames.Next()
					chain = append(chain, f.Function)
				}
			}
			return 1
		})
		at := func(name string) int {
			return slices.IndexFunc(chain, func(f string) bool { return strings.Contains(f, name) })
		}
		if at("foldRange") != 1 || at("forRanges") < 2 || at("ForNowait") >= 0 {
			t.Errorf("%v: body called through %q", sched.Kind, chain)
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestLoopConstructAllocations pins what one call of the loop constructs
// allocates at what it did before the engine handed out chunks (PR 15's
// tree): the index-loop and fold wrappers around the chunk callback must
// stay on the stack, not become a heap closure per thread.
func TestLoopConstructAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, tc := range []struct {
		sched              Schedule
		maxFor, maxReduces float64
	}{
		{Static(), 3, 2},
		{StaticChunk(3), 3, 2},
		{Dynamic(1), 5, 4},
		{Guided(1), 5, 4},
	} {
		for _, nt := range []int{1, 2, 4} {
			loop := testing.AllocsPerRun(100, func() { ParallelFor(nt, 1000, tc.sched, func(int) {}) })
			redF := testing.AllocsPerRun(100, func() {
				ParallelForReduceFloat64(nt, 1000, tc.sched, OpSum, func(i int) float64 { return float64(i) })
			})
			redI := testing.AllocsPerRun(100, func() {
				ParallelForReduceInt64(nt, 1000, tc.sched, OpSum, func(i int) int64 { return int64(i) })
			})
			if loop > tc.maxFor || redF > tc.maxReduces || redI > tc.maxReduces {
				t.Errorf("%v nt=%d: ParallelFor %v allocs (max %v), reductions %v and %v (max %v)",
					tc.sched.Kind, nt, loop, tc.maxFor, redF, redI, tc.maxReduces)
			}
		}
	}
}
