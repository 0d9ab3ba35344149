package forestfire

import (
	"fmt"

	"repro/internal/mpi"
)

// SimulateDomainOverlap is SimulateDomainMPI restructured to overlap
// communication with computation, the way production stencil codes hide
// their halo latency:
//
//  1. post the step's termination check as a nonblocking IAllreduce;
//  2. generate the boundary rows' ignition attempts first and post the
//     halo Isend/Irecv immediately;
//  3. generate and apply the interior attempts while the halo and the
//     allreduce are still in flight;
//  4. Waitall the halo receives, apply the neighbours' attacks, and Wait
//     the termination check last.
//
// Because ignition decisions are a pure hash of (seed, step, from, to), the
// reordering cannot change any outcome: every rank returns the same
// TrialResult as SimulateDomainMPI and the sequential SimulateHash, cell for
// cell, step for step. The one structural difference is the final iteration:
// the blocking version learns "no fire anywhere" before sending, while this
// version has already exchanged (empty) halos by the time the termination
// check lands — the message pattern stays identical across ranks, so nothing
// strays.
func SimulateDomainOverlap(c *mpi.Comm, rows, cols int, prob float64, seed int64) (TrialResult, error) {
	if rows < 1 || cols < 1 {
		return TrialResult{}, fmt.Errorf("forestfire: grid must be at least 1x1")
	}
	// 1-D row-slab decomposition: the neighbours are simply rank±1.
	down, up := mpi.ProcNull, mpi.ProcNull
	if c.Rank() > 0 {
		down = c.Rank() - 1
	}
	if c.Rank() < c.Size()-1 {
		up = c.Rank() + 1
	}

	rowLo, rowHi := blockRows(rows, c.Rank(), c.Size())
	owns := func(cell int) bool {
		r := cell / cols
		return r >= rowLo && r < rowHi
	}
	local := make([]cellState, (rowHi-rowLo)*cols)
	at := func(cell int) *cellState { return &local[cell-rowLo*cols] }

	center := (rows/2)*cols + cols/2
	var burning []int
	if owns(center) {
		*at(center) = stateBurning
		burning = append(burning, center)
	}

	steps := 0
	burnedLocal := 0
	const tagHalo = 11
	for {
		// (1) Termination check for this step, posted — not waited.
		anyBurning := 0
		term := mpi.IAllreduce(c, boolToInt(len(burning) > 0), mpi.Combine[int](mpi.Max), &anyBurning)
		step := steps + 1

		// (2) Boundary rows first: their attacks are the only ones that can
		// cross the slab edge. Interior cells are deferred to overlap with
		// the exchange.
		var localAttacks, toDown, toUp []int
		var interior []int
		route := func(cell int) {
			r, col := cell/cols, cell%cols
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nr, nc := r+d[0], col+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				to := nr*cols + nc
				switch {
				case owns(to):
					localAttacks = append(localAttacks, cell, to)
				case nr < rowLo:
					toDown = append(toDown, cell, to)
				default:
					toUp = append(toUp, cell, to)
				}
			}
			*at(cell) = stateBurned
			burnedLocal++
		}
		for _, cell := range burning {
			if r := cell / cols; r == rowLo || r == rowHi-1 {
				route(cell)
			} else {
				interior = append(interior, cell)
			}
		}

		// Post the halo exchange (empty slices cross too, keeping the
		// message pattern identical every step).
		var fromDown, fromUp []int
		var recvs []*mpi.Request
		if down != mpi.ProcNull {
			if _, err := c.Isend(down, tagHalo, toDown).Wait(); err != nil {
				return TrialResult{}, err
			}
			recvs = append(recvs, c.Irecv(down, tagHalo, &fromDown))
		}
		if up != mpi.ProcNull {
			if _, err := c.Isend(up, tagHalo, toUp).Wait(); err != nil {
				return TrialResult{}, err
			}
			recvs = append(recvs, c.Irecv(up, tagHalo, &fromUp))
		}

		// (3) Interior work while the network is busy: generate the interior
		// attacks (all of them land inside the slab) and apply everything
		// local. The hash makes application order irrelevant.
		for _, cell := range interior {
			route(cell)
		}
		var next []int
		apply := func(pairs []int) {
			for i := 0; i+1 < len(pairs); i += 2 {
				from, to := pairs[i], pairs[i+1]
				if !owns(to) {
					continue
				}
				if *at(to) == stateTree && igniteDecision(seed, step, from, to) < prob {
					*at(to) = stateBurning
					next = append(next, to)
				}
			}
		}
		apply(localAttacks)

		// (4) Finish the communication: neighbours' attacks, then the
		// termination verdict.
		if _, err := mpi.Waitall(recvs); err != nil {
			return TrialResult{}, err
		}
		apply(fromDown)
		apply(fromUp)
		if _, err := term.Wait(); err != nil {
			return TrialResult{}, err
		}
		if anyBurning == 0 {
			// No rank had fire this iteration: nothing was generated or
			// applied anywhere, so the step does not count.
			break
		}
		steps++
		burning = next
	}

	burnedTotal, err := mpi.Allreduce(c, burnedLocal, mpi.Combine[int](mpi.Sum))
	if err != nil {
		return TrialResult{}, err
	}
	return TrialResult{
		BurnedFraction: float64(burnedTotal) / float64(rows*cols),
		Steps:          steps,
	}, nil
}
