package shm

import "runtime"

// ParallelFor runs body(i) for every i in [0, n) using a team of numThreads
// threads and the given schedule: the OpenMP "parallel for" construct.
// The thread count is resolved by TeamSize and additionally clamped to n.
//
// The iterations of one call never overlap with code after the call (there
// is an implicit join), but iterations assigned to different threads run
// concurrently, so body must synchronize any access to shared state — or,
// better, use ParallelForReduce.
func ParallelFor(numThreads, n int, sched Schedule, body func(i int)) {
	if n <= 0 {
		return
	}
	nt := resolveThreads(numThreads)
	if nt > n {
		nt = n
	}
	Parallel(nt, func(tc *ThreadContext) {
		tc.For(n, sched, body)
	})
}

// For distributes the iterations [0, n) of a loop among the team according
// to the schedule and runs body for the iterations assigned to this thread:
// the orphaned "#pragma omp for" work-sharing construct. Every thread of the
// team must call For with the same n and schedule. The call ends with an
// implicit team barrier, as in OpenMP.
func (tc *ThreadContext) For(n int, sched Schedule, body func(i int)) {
	tc.ForNowait(n, sched, body)
	tc.Barrier()
}

// ForNowait is For without the trailing barrier: "#pragma omp for nowait".
func (tc *ThreadContext) ForNowait(n int, sched Schedule, body func(i int)) {
	tc.forRanges(n, sched, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// forRanges is the loop engine: it claims this thread's share of [0, n) under
// the schedule and calls chunk(lo, hi) once per claimed chunk, never with an
// empty one. Handing out ranges rather than indices keeps the engine's
// indirect call off the per-iteration path, so a caller's inner loop (the
// index loop above, a reduction's fold) runs at the speed of its body.
func (tc *ThreadContext) forRanges(n int, sched Schedule, chunk func(lo, hi int)) {
	if n <= 0 {
		return
	}
	switch sched.Kind {
	case ScheduleStatic:
		if lo, hi := StaticRange(n, tc.id, tc.team.size); lo < hi {
			chunk(lo, hi)
		}
	case ScheduleStaticCyclic:
		size := sched.normalizedChunk()
		for start := tc.id * size; start < n; start += tc.team.size * size {
			chunk(start, min(start+size, n))
		}
	case ScheduleDynamic, ScheduleGuided:
		tc.shareLoop(tc.team.loopEnter(n), n, sched, chunk)
	default:
		panic("shm: unknown schedule kind")
	}
}

// shareLoop claims this thread's chunks of a Dynamic or Guided loop from the
// construct's shared state: work-stealing when ls carries deques, the shared
// counter otherwise.
func (tc *ThreadContext) shareLoop(ls *loopState, n int, sched Schedule, chunk func(lo, hi int)) {
	size := sched.normalizedChunk()
	if sched.Kind == ScheduleDynamic {
		if ls.deques != nil {
			tc.stealLoop(ls, size, nil, chunk)
			return
		}
		for {
			start := int(ls.counter.Add(int64(size))) - size
			if start >= n {
				return
			}
			chunk(start, min(start+size, n))
		}
	}
	if ls.deques != nil {
		// Per-thread guided: each claim halves the thread's own remaining
		// range (threads=1 in the guidedChunk formula, since the range is
		// private), floored at the minimum chunk. The steal-half balancing
		// plays the role the shrinking global chunk played.
		tc.stealLoop(ls, 0, func(remaining int) int {
			return guidedChunk(remaining, 1, size)
		}, chunk)
		return
	}
	// Guided over a shared counter: each grab takes a chunk sized by
	// guidedChunk. Claim optimistically with a CAS loop.
	ctr := &ls.counter
	for {
		cur := ctr.Load()
		if int(cur) >= n {
			return
		}
		grab := guidedChunk(n-int(cur), tc.team.size, size)
		if ctr.CompareAndSwap(cur, cur+int64(grab)) {
			chunk(int(cur), int(cur)+grab)
			continue
		}
		// CAS lost: another thread advanced the counter. Yield instead of
		// immediately re-contending — with 8+ threads on a tiny minimum
		// chunk, tight respins serialize on the cache line and burn cycles
		// the winner could use to run its chunk.
		runtime.Gosched()
	}
}
