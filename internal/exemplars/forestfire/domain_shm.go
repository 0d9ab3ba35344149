package forestfire

import (
	"repro/internal/shm"
)

// attack is one ignition attempt crossing a slab boundary. Only the
// shared-memory variant keeps the struct form: its batches never leave the
// process, so there is nothing to serialize. The MPI variants flatten
// attempts to []int pairs so the halo exchange rides the typed fast path
// and the raw wire framing (see domain.go).
type attack struct {
	From int // global id of the burning cell
	To   int // global id of the attacked cell
}

// SimulateHashShared burns one forest split into row slabs across the
// threads of a shared-memory team: the shared-memory twin of
// SimulateDomainMPI, and the stencil-style counterpart to SweepShared's
// trial-level parallelism.
//
// Each thread owns a contiguous slab of rows and is the only writer of its
// slab's cells. A step runs in two phases separated by team barriers. In the
// generation phase each thread walks its own burning front and, as
// SimulateHash does, decides every attempt against its own slab at once;
// attempts crossing a slab boundary are appended to a per-(source,
// destination) outbox batch — the halo exchange is one batch handed over
// per worker pair per step, not a synchronization per cell. In the apply
// phase each thread applies every other thread's outbox row for it. A tree
// ignites when any attacker's hash of (seed, step, from, to) falls below
// prob, so the outcome is independent of the order attempts are decided in
// and the result is identical to SimulateHash for the same arguments, for
// any thread count.
//
// Before the first barrier a thread reads and writes only its own cells.
// Only the slice-length reads at the termination check and the outbox reads
// in the apply phase cross thread boundaries, and both are ordered by the
// barriers, so the simulation is race-free without a single atomic or lock
// in the step loop.
func SimulateHashShared(rows, cols int, prob float64, seed int64, numThreads int) TrialResult {
	if rows < 1 || cols < 1 {
		return TrialResult{}
	}
	nt := shm.TeamSize(numThreads)

	grid := make([]cellState, rows*cols)
	center := (rows/2)*cols + cols/2
	grid[center] = stateBurning

	// Row → owning thread, inverse of shm.StaticRange's split. With more threads
	// than rows, base is 0 and every row falls in the remainder branch;
	// the surplus threads own empty slabs and just keep the barriers full.
	base, rem := rows/nt, rows%nt
	ownerOfRow := func(r int) int {
		if r < rem*(base+1) {
			return r / (base + 1)
		}
		return rem + (r-rem*(base+1))/base
	}

	// Per-thread fronts and attempt batches. burning[t] and spare[t] (the
	// buffer the next front is built in) are written only by thread t;
	// outbox[t][u] is written only by t and read only by u, on opposite
	// sides of a barrier.
	burning := make([][]int, nt)
	spare := make([][]int, nt)
	outbox := make([][][]attack, nt)
	for t := 0; t < nt; t++ {
		outbox[t] = make([][]attack, nt)
	}
	burning[ownerOfRow(rows/2)] = []int{center}

	var steps int
	burned := shm.ParallelReduceInt64(nt, shm.OpSum, func(tc *shm.ThreadContext) int64 {
		me := tc.ThreadNum()
		var burnedLocal int64
		mySteps := 0
		ignite := func(next []int, from, to int) []int {
			if grid[to] == stateTree && igniteDecision(seed, mySteps, from, to) < prob {
				grid[to] = stateBurning
				next = append(next, to)
			}
			return next
		}
		for {
			// Termination: every thread computes the same total over the
			// fronts published before the previous barrier, so all threads
			// leave the loop on the same step.
			total := 0
			for t := 0; t < nt; t++ {
				total += len(burning[t])
			}
			if total == 0 {
				break
			}
			mySteps++

			// Generation phase: burn own front, ignite own cells, batch up
			// the attempts on other slabs.
			out := outbox[me]
			for t := range out {
				out[t] = out[t][:0]
			}
			next := spare[me][:0]
			for _, cell := range burning[me] {
				r, c := cell/cols, cell%cols
				for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					nr, nc := r+d[0], c+d[1]
					if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
						continue
					}
					if owner := ownerOfRow(nr); owner == me {
						next = ignite(next, cell, nr*cols+nc)
					} else {
						out[owner] = append(out[owner], attack{From: cell, To: nr*cols + nc})
					}
				}
				grid[cell] = stateBurned
				burnedLocal++
			}
			tc.Barrier()

			// Apply phase: each neighbour's outbox row for this slab.
			for t := 0; t < nt; t++ {
				if t != me {
					for _, a := range outbox[t][me] {
						next = ignite(next, a.From, a.To)
					}
				}
			}
			spare[me], burning[me] = burning[me], next
			tc.Barrier()
		}
		if me == 0 {
			steps = mySteps
		}
		return burnedLocal
	})
	return TrialResult{
		BurnedFraction: float64(burned) / float64(rows*cols),
		Steps:          steps,
	}
}
