package shm

import "sync/atomic"

// Work-stealing execution of the Dynamic and Guided schedules.
//
// The seed runtime handed dynamic and guided chunks out of one shared
// atomic counter, which puts every thread's chunk claim on the same cache
// line — fine at 2 threads, a serialization point at 8 or 16 when chunks
// are small. The work-stealing engine removes the shared line entirely:
// each thread starts with the contiguous block the static schedule would
// give it and carves chunks off its *own* range; a thread that drains its
// range steals the upper half of a randomly chosen victim's remaining
// range. Uncontended chunk claims touch only thread-local state, and
// contention happens only at steal time, which is rare by construction
// (each steal moves half of what remains).
//
// Each per-thread range is a single atomic uint64 packing (lo, hi) as two
// 32-bit halves, so both the owner's take and a thief's steal are one CAS,
// and the word describes the range completely (no ABA hazard: every
// transition derives the new range from the observed one, and a range is
// only ever stored into a deque by the thread that exclusively claimed it).
// Loops of 2^31 or more iterations, which the packed ranges cannot
// represent, take the seed's shared-counter engine instead.

// maxStealIters is the largest loop bound the packed 32-bit ranges can
// represent.
const maxStealIters = 1 << 31

// stealDeque is one thread's remaining iteration range [lo, hi), packed
// into one atomic word and padded so neighbouring deques never share a
// cache line — the whole point is that thread i claiming a chunk must not
// invalidate thread j's line.
type stealDeque struct {
	bounds atomic.Uint64
	_      [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }

func unpackRange(b uint64) (lo, hi int) { return int(uint32(b)), int(b >> 32) }

// takeFixed claims the next fixed-size chunk from the low end of this
// thread's own range with a single fetch-add on the packed word (no CAS
// loop): adding c to the word advances lo by c, and the returned snapshot
// tells us both the chunk start and the hi bound in force at claim time.
// Claims and steals stay disjoint because a steal only moves hi down to at
// least the lo it observed, and our chunk is clamped to the hi in our
// snapshot. An overshoot (claiming from an already-empty range) just bumps
// lo further past hi, which every reader treats as empty; the owner stops
// taking after the first failure, and stolen loot is installed with an
// unconditional Store, so overshoot never accumulates toward the hi bits.
func (d *stealDeque) takeFixed(c int) (lo, hi int, ok bool) {
	b := d.bounds.Add(uint64(c))
	rhi := int(b >> 32)
	end := int(uint32(b))
	rlo := end - c
	if rlo >= rhi {
		return 0, 0, false
	}
	if end > rhi {
		end = rhi
	}
	return rlo, end, true
}

// take claims the next chunk from the low end of this thread's own range.
// chunkOf maps the remaining length to the chunk size to claim.
func (d *stealDeque) take(chunkOf func(remaining int) int) (lo, hi int, ok bool) {
	for {
		b := d.bounds.Load()
		rlo, rhi := unpackRange(b)
		if rlo >= rhi {
			return 0, 0, false
		}
		c := chunkOf(rhi - rlo)
		if c < 1 {
			c = 1
		}
		end := rlo + c
		if end > rhi {
			end = rhi
		}
		if d.bounds.CompareAndSwap(b, packRange(end, rhi)) {
			return rlo, end, true
		}
	}
}

// steal claims the upper half of the range, leaving the lower half for the
// owner (who is consuming from the low end).
func (d *stealDeque) steal() (lo, hi int, ok bool) {
	for {
		b := d.bounds.Load()
		rlo, rhi := unpackRange(b)
		if rlo >= rhi {
			return 0, 0, false
		}
		mid := rlo + (rhi-rlo)/2
		if mid == rlo {
			// One iteration left: take it whole, leaving the deque empty.
			if d.bounds.CompareAndSwap(b, packRange(rlo, rlo)) {
				return rlo, rhi, true
			}
			continue
		}
		if d.bounds.CompareAndSwap(b, packRange(rlo, mid)) {
			return mid, rhi, true
		}
	}
}

// loopState is the shared state of one work-sharing construct. A fresh one
// is installed per construct by the generation race in team.loopEnter; the
// implicit barrier at the end of For guarantees no two constructs are
// active at once within a team.
type loopState struct {
	counter  atomic.Int64 // shared-counter engine
	deques   []stealDeque // work-stealing engine, one per thread; nil selects the counter
	arrivals int          // guarded by team.mu
	done     bool         // guarded by team.mu
}

// loopEnter returns the loop state for the current work-sharing construct,
// installing a fresh one if this thread is the first arrival of a new
// construct. n is the loop bound; every thread of the team must pass the
// same one.
func (t *team) loopEnter(n int) *loopState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loop == nil || t.loop.done {
		t.loop = &loopState{}
		if n < maxStealIters {
			t.loop.deques = stealDeques(n, t.size)
		}
	}
	t.loop.arrivals++
	if t.loop.arrivals == t.size {
		// Last thread to pick up the state marks this construct finished
		// so the next work-sharing construct installs a fresh one.
		t.loop.done = true
	}
	return t.loop
}

// stealDeques seeds one deque per thread with the block the static schedule
// would give it.
func stealDeques(n, threads int) []stealDeque {
	deques := make([]stealDeque, threads)
	for id := range deques {
		lo, hi := StaticRange(n, id, threads)
		deques[id].bounds.Store(packRange(lo, hi))
	}
	return deques
}

// stealLoop calls chunk once per range claimed work-stealing style: drain the
// own range, then steal from random victims until a full sweep finds everyone
// empty. When chunkOf is nil the chunk size is the constant fixed, and claims
// go through takeFixed's single-fetch-add fast path (the Dynamic schedule);
// a size-dependent chunkOf (Guided) needs the CAS path, which must observe
// the remaining length before claiming.
func (tc *ThreadContext) stealLoop(ls *loopState, fixed int, chunkOf func(remaining int) int, chunk func(lo, hi int)) {
	self := &ls.deques[tc.id]
	size := tc.team.size
	// Cheap per-thread xorshift for victim selection; seeded off the thread
	// id so threads fan out over different victims.
	rng := uint64(tc.id)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for {
		for {
			var lo, hi int
			var ok bool
			if chunkOf == nil {
				lo, hi, ok = self.takeFixed(fixed)
			} else {
				lo, hi, ok = self.take(chunkOf)
			}
			if !ok {
				break
			}
			chunk(lo, hi)
		}
		if size == 1 {
			return
		}
		// Own range drained: steal. Start at a random victim and sweep the
		// whole team once; if nobody has work left, the loop is done (any
		// still-unexecuted iterations are inside chunks already claimed by
		// their owners).
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		stolen := false
		start := int(rng % uint64(size))
		for off := 0; off < size; off++ {
			v := start + off
			if v >= size {
				v -= size
			}
			if v == tc.id {
				continue
			}
			if lo, hi, ok := ls.deques[v].steal(); ok {
				// The stolen range is exclusively ours; publish it as our
				// own range (thieves may now steal from us in turn) and go
				// back to consuming it chunk by chunk.
				self.bounds.Store(packRange(lo, hi))
				stolen = true
				break
			}
		}
		if !stolen {
			return
		}
	}
}

// guidedChunk computes the next guided-schedule chunk for a loop with
// `remaining` iterations left, `threads` claimants, and a requested minimum
// chunk of `min`: the classic remaining/(2·threads), floored at min — with
// the floor made honest at the tail. The seed implementation clamped the
// final chunk to whatever was left, so with remaining < threads·min the
// last grabs could shrink below the requested minimum; instead, a grab that
// would leave fewer than min iterations behind swallows the tail whole, so
// every chunk the schedule hands out has at least min iterations (the only
// exception being a loop shorter than min to begin with).
func guidedChunk(remaining, threads, min int) int {
	if min < 1 {
		min = 1
	}
	if remaining <= 0 {
		return 0
	}
	c := remaining / (2 * threads)
	if c < min {
		c = min
	}
	if remaining-c < min {
		c = remaining
	}
	return c
}
