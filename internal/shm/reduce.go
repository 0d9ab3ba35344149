package shm

import "math"

// ReduceOp names a reduction operator, mirroring the operator part of
// OpenMP's reduction(op:var) clause. The reduction patternlet teaches that a
// reduction is the race-free way to combine per-thread partial results.
type ReduceOp int

const (
	// OpSum combines partial results by addition.
	OpSum ReduceOp = iota
	// OpProd combines partial results by multiplication.
	OpProd
	// OpMax keeps the maximum partial result.
	OpMax
	// OpMin keeps the minimum partial result.
	OpMin
)

// String names the operator as it appears in an OpenMP reduction clause.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "+"
	case OpProd:
		return "*"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return "?"
	}
}

// identityFloat64 returns op's identity element for float64 reductions.
func (op ReduceOp) identityFloat64() float64 {
	switch op {
	case OpSum:
		return 0
	case OpProd:
		return 1
	case OpMax:
		return math.Inf(-1)
	case OpMin:
		return math.Inf(1)
	default:
		panic("shm: unknown reduce op")
	}
}

// identityInt64 returns op's identity element for int64 reductions.
func (op ReduceOp) identityInt64() int64 {
	switch op {
	case OpSum:
		return 0
	case OpProd:
		return 1
	case OpMax:
		return math.MinInt64
	case OpMin:
		return math.MaxInt64
	default:
		panic("shm: unknown reduce op")
	}
}

// number is the set of element types the typed reductions support.
type number interface{ float64 | int64 }

// maxOf and minOf are the max and min operators. When the comparison is false
// (a tie, a NaN on either side) the right operand is the result.
func maxOf[T number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func minOf[T number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// foldRange folds body(lo), …, body(hi-1) into p in index order. The operator
// is chosen once per range, outside the loop, and the running value is a plain
// local (a register, spilled only around the call of body), so an iteration
// costs its body plus one arithmetic instruction.
func foldRange[T number](op ReduceOp, p T, lo, hi int, body func(i int) T) T {
	switch op {
	case OpSum:
		for i := lo; i < hi; i++ {
			p += body(i)
		}
	case OpProd:
		for i := lo; i < hi; i++ {
			p *= body(i)
		}
	case OpMax:
		for i := lo; i < hi; i++ {
			p = maxOf(p, body(i))
		}
	case OpMin:
		for i := lo; i < hi; i++ {
			p = minOf(p, body(i))
		}
	default:
		panic("shm: unknown reduce op")
	}
	return p
}

// The typed reduction fast path. Each thread folds every chunk the loop
// engine hands it in a local (foldRange) and touches its own
// cache-line-padded slot once per chunk; the caller folds the slots serially,
// in thread order, after the join. Nothing is shared while the loop runs — no
// mutex, no atomic, and, because the slots are padded to 64 bytes, not even a
// cache line. This is the strategy the reduction patternlet teaches, and the
// patternlet runs it through ParallelForReduceInt64;
// BenchmarkReduceTypedFloat64 times it against the AtomicFloat64 CAS-retry
// alternative (BenchmarkReduceAtomicFloat64).
//
// padded holds one per-thread partial, padded so adjacent threads' writes
// cannot false-share.
type padded[T number] struct {
	v T
	_ [56]byte
}

// foldSlots combines the per-thread partials in thread order.
func foldSlots[T number](op ReduceOp, identity T, slots []padded[T]) T {
	return foldRange(op, identity, 0, len(slots), func(i int) T { return slots[i].v })
}

// ParallelForReduceFloat64 runs body(i) for i in [0, n) across a team and
// combines the values body returns with op, returning the reduction:
// the analogue of
//
//	#pragma omp parallel for reduction(op:acc)
func ParallelForReduceFloat64(numThreads, n int, sched Schedule, op ReduceOp, body func(i int) float64) float64 {
	return forReduce(numThreads, n, sched, op, op.identityFloat64(), body)
}

// ParallelForReduceInt64 is ParallelForReduceFloat64 for int64 values.
func ParallelForReduceInt64(numThreads, n int, sched Schedule, op ReduceOp, body func(i int) int64) int64 {
	return forReduce(numThreads, n, sched, op, op.identityInt64(), body)
}

func forReduce[T number](numThreads, n int, sched Schedule, op ReduceOp, identity T, body func(i int) T) T {
	if n <= 0 {
		return identity
	}
	nt := min(resolveThreads(numThreads), n)
	slots := make([]padded[T], nt)
	Parallel(nt, func(tc *ThreadContext) {
		slot := &slots[tc.id].v
		*slot = identity
		tc.forRanges(n, sched, func(lo, hi int) {
			*slot = foldRange(op, *slot, lo, hi, body)
		})
	})
	return foldSlots(op, identity, slots)
}

// ParallelReduceFloat64 runs body once per thread of a numThreads team and
// reduces the per-thread return values with op: a whole-region reduction,
// the analogue of
//
//	#pragma omp parallel reduction(op:acc)
//
// It is the right shape when each thread computes its partial from bulk
// per-thread work (its own RNG stream, its own block of a data set) rather
// than from individual loop iterations. The combine uses the same padded
// per-thread slots as the loop reductions.
func ParallelReduceFloat64(numThreads int, op ReduceOp, body func(tc *ThreadContext) float64) float64 {
	return regionReduce(numThreads, op, op.identityFloat64(), body)
}

// ParallelReduceInt64 is ParallelReduceFloat64 for int64 values.
func ParallelReduceInt64(numThreads int, op ReduceOp, body func(tc *ThreadContext) int64) int64 {
	return regionReduce(numThreads, op, op.identityInt64(), body)
}

func regionReduce[T number](numThreads int, op ReduceOp, identity T, body func(tc *ThreadContext) T) T {
	slots := make([]padded[T], resolveThreads(numThreads))
	Parallel(len(slots), func(tc *ThreadContext) {
		slots[tc.id].v = body(tc)
	})
	return foldSlots(op, identity, slots)
}
