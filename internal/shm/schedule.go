package shm

import "fmt"

// ScheduleKind selects how ParallelFor distributes loop iterations among the
// threads of a team, mirroring OpenMP's schedule(...) clause. The choice of
// schedule is one of the central lessons of the parallel-loop patternlets:
// equal chunks suit uniform iterations, chunks of one (cyclic) and dynamic
// schedules suit imbalanced ones such as the drug-design exemplar.
type ScheduleKind int

const (
	// ScheduleStatic divides the iteration space into one contiguous block
	// per thread ("parallel loop, equal chunks"). Chunk size 0 means
	// ceil(n/threads).
	ScheduleStatic ScheduleKind = iota
	// ScheduleStaticCyclic deals iterations round-robin in chunks
	// ("parallel loop, chunks of 1" when the chunk is 1).
	ScheduleStaticCyclic
	// ScheduleDynamic hands out chunks first-come first-served, the
	// analogue of schedule(dynamic, chunk): each thread carves them off its
	// own block and steals from the others once that is drained (or, for a
	// loop of 2^31 or more iterations, all claim from one shared counter).
	ScheduleDynamic
	// ScheduleGuided hands out exponentially shrinking chunks, the
	// analogue of schedule(guided, chunk); chunk is the minimum size.
	ScheduleGuided
)

// String names the schedule the way the patternlets' handout does.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static (equal chunks)"
	case ScheduleStaticCyclic:
		return "static cyclic (chunks of k)"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// Schedule pairs a schedule kind with its chunk parameter.
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// Static is the default OpenMP schedule: one equal contiguous block per thread.
func Static() Schedule { return Schedule{Kind: ScheduleStatic} }

// StaticChunk is schedule(static, chunk): round-robin blocks of the given size.
func StaticChunk(chunk int) Schedule {
	return Schedule{Kind: ScheduleStaticCyclic, Chunk: chunk}
}

// ChunksOf1 is the patternlets' "chunks of 1" cyclic schedule.
func ChunksOf1() Schedule { return StaticChunk(1) }

// Dynamic is schedule(dynamic, chunk).
func Dynamic(chunk int) Schedule { return Schedule{Kind: ScheduleDynamic, Chunk: chunk} }

// Guided is schedule(guided, minChunk).
func Guided(minChunk int) Schedule { return Schedule{Kind: ScheduleGuided, Chunk: minChunk} }

// normalizedChunk clamps a chunk parameter to at least 1.
func (s Schedule) normalizedChunk() int {
	if s.Chunk < 1 {
		return 1
	}
	return s.Chunk
}

// StaticRange computes the half-open iteration range [lo, hi) that the
// ScheduleStatic schedule assigns to the given thread for a loop of n
// iterations across numThreads threads. Iterations are split as evenly as
// possible, with the first n%numThreads threads receiving one extra. It is
// also the block partition every message-passing exemplar gives its ranks.
func StaticRange(n, thread, numThreads int) (lo, hi int) {
	base := n / numThreads
	rem := n % numThreads
	if thread < rem {
		lo = thread * (base + 1)
		hi = lo + base + 1
	} else {
		lo = rem*(base+1) + (thread-rem)*base
		hi = lo + base
	}
	return lo, hi
}
