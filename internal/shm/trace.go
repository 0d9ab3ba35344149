package shm

import (
	"fmt"
	"strings"
)

// ScheduleTrace records which thread executed each iteration of a parallel
// loop — the "predict, then check" tool the handout's loop section builds
// its exercises around. Render draws the assignment as one row per thread.
type ScheduleTrace struct {
	Threads  int
	N        int
	Schedule Schedule
	// Owner[i] is the thread that executed iteration i.
	Owner []int
}

// TraceSchedule runs an instrumented empty loop and returns the iteration
// assignment the schedule produced. For dynamic and guided schedules the
// assignment varies run to run — that variability is itself the lesson.
func TraceSchedule(numThreads, n int, sched Schedule) *ScheduleTrace {
	nt := resolveThreads(numThreads)
	tr := &ScheduleTrace{Threads: nt, N: n, Schedule: sched, Owner: make([]int, n)}
	// Chunks are disjoint, so the threads write disjoint elements of Owner,
	// and Parallel's join orders those writes before the caller's reads.
	Parallel(nt, func(tc *ThreadContext) {
		tc.forRanges(n, sched, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tr.Owner[i] = tc.id
			}
		})
	})
	return tr
}

// PerThread returns each thread's iterations, in index order.
func (tr *ScheduleTrace) PerThread() [][]int {
	out := make([][]int, tr.Threads)
	for i, th := range tr.Owner {
		out[th] = append(out[th], i)
	}
	return out
}

// Render draws the assignment: one row per thread, one column per
// iteration, '#' where the thread owned the iteration.
func (tr *ScheduleTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %v over %d iterations on %d threads\n", tr.Schedule.Kind, tr.N, tr.Threads)
	b.WriteString("        ")
	for i := 0; i < tr.N; i++ {
		b.WriteByte(byte('0' + i%10))
	}
	b.WriteByte('\n')
	for th := 0; th < tr.Threads; th++ {
		fmt.Fprintf(&b, "thread %d ", th)
		for i := 0; i < tr.N; i++ {
			if tr.Owner[i] == th {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
