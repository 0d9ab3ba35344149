package forestfire

import "repro/internal/mpi"

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
	s, err := newSlab(c, rows, cols, prob, seed)
	if err != nil {
		return TrialResult{}, err
	}
	// 1-D row-slab decomposition: the neighbours are simply rank±1.
	down, up := mpi.ProcNull, mpi.ProcNull
	if c.Rank() > 0 {
		down = c.Rank() - 1
	}
	if c.Rank() < c.Size()-1 {
		up = c.Rank() + 1
	}
	s.ignite()

	steps := 0
	for {
		// (1) Termination check for this step, posted — not waited.
		anyBurning := 0
		term := mpi.IAllreduce(c, boolToInt(len(s.burning) > 0), mpi.Combine[int](mpi.Max), &anyBurning)
		step := steps + 1

		// (2) Boundary rows first: their attacks are the only ones that can
		// cross the slab edge. Interior cells are deferred to overlap with
		// the exchange.
		var a attacks
		var interior []int
		for _, cell := range s.burning {
			if r := cell / cols; r == s.lo || r == s.hi-1 {
				s.burn(cell, &a)
			} else {
				interior = append(interior, cell)
			}
		}

		// Post the halo exchange (empty slices cross too, keeping the
		// message pattern identical every step).
		var fromDown, fromUp []int
		var recvs []*mpi.Request
		if down != mpi.ProcNull {
			if _, err := c.Isend(down, tagHalo, a.down).Wait(); err != nil {
				return TrialResult{}, err
			}
			recvs = append(recvs, c.Irecv(down, tagHalo, &fromDown))
		}
		if up != mpi.ProcNull {
			if _, err := c.Isend(up, tagHalo, a.up).Wait(); err != nil {
				return TrialResult{}, err
			}
			recvs = append(recvs, c.Irecv(up, tagHalo, &fromUp))
		}

		// (3) Interior work while the network is busy: generate the interior
		// attacks (all of them land inside the slab) and apply everything
		// local. The hash makes application order irrelevant.
		for _, cell := range interior {
			s.burn(cell, &a)
		}
		var next []int
		s.apply(step, a.local, &next)

		// (4) Finish the communication: neighbours' attacks, then the
		// termination verdict.
		if _, err := mpi.Waitall(recvs); err != nil {
			return TrialResult{}, err
		}
		s.apply(step, fromDown, &next)
		s.apply(step, fromUp, &next)
		if _, err := term.Wait(); err != nil {
			return TrialResult{}, err
		}
		if anyBurning == 0 {
			// No rank had fire this iteration: nothing was generated or
			// applied anywhere, so the step does not count.
			break
		}
		steps++
		s.burning = next
	}
	return s.result(c, steps)
}
