package forestfire

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// Survive-and-continue variant of the domain decomposition. The fire
// simulation is the ideal checkpoint-restart exemplar because its ignition
// decisions are a counter-based hash of (seed, step, from, to): the full
// "RNG state" of a slab is just the step counter, so a re-decomposed
// restart replays exactly the same fire, and the recovered run's result is
// bit-identical to the failure-free one no matter how many ranks died or
// where the last checkpoint fell.

// slabCkpt is one rank's checkpoint shard: its slab of the grid at the top
// of a step, self-describing (RowLo/RowHi) so that after a Shrink the
// survivors can reassemble their new slabs from any old decomposition.
type slabCkpt struct {
	Step         int    // completed steps; the hash RNG's entire state
	RowLo, RowHi int    // global rows this shard covers: [RowLo, RowHi)
	Grid         []byte // cellState per cell, row-major within the slab
	Burning      []int  // global ids of cells burning at the top of step Step+1
}

// SimulateDomainRecover is SimulateDomainMPI for recovery-mode worlds: it
// checkpoints every `every` steps into store, and when a rank failure
// surfaces it calls Comm.Recover, re-decomposes the last committed
// checkpoint over the world Recover returns, and continues. Under
// mpi.WithRecovery that world is the shrunk survivors; under mpi.WithRespawn
// it is the ORIGINAL width, a respawned incarnation entering here fresh and
// meeting the survivors at the checkpoint restore, unless the dead rank
// departed or will not come back, when it shrinks. Every rank that finishes
// returns the identical TrialResult, equal to SimulateHash's for the same
// arguments.
func SimulateDomainRecover(c *mpi.Comm, rows, cols int, prob float64, seed int64, store ckpt.Store, every int) (TrialResult, error) {
	comm := c
	for {
		res, err := simulateDomainCkpt(comm, rows, cols, prob, seed, store, every)
		if !errors.Is(err, mpi.ErrRankFailed) {
			return res, err
		}
		if comm, err = comm.Recover(); err != nil {
			return TrialResult{}, err
		}
	}
}

// simulateDomainCkpt runs the domain simulation from the last committed
// checkpoint (or from scratch) to completion, saving a checkpoint every
// `every` steps. A rank failure anywhere inside surfaces as a retryable
// error wrapping mpi.ErrRankFailed; the caller recovers and re-enters.
func simulateDomainCkpt(c *mpi.Comm, rows, cols int, prob float64, seed int64, store ckpt.Store, every int) (TrialResult, error) {
	if rows < 1 || cols < 1 {
		return TrialResult{}, fmt.Errorf("forestfire: grid must be at least 1x1")
	}
	cart, err := mpi.NewCart(c, []int{c.Size()}, nil)
	if err != nil {
		return TrialResult{}, err
	}

	rowLo, rowHi := blockRows(rows, c.Rank(), c.Size())
	owns := func(cell int) bool {
		r := cell / cols
		return r >= rowLo && r < rowHi
	}
	local := make([]cellState, (rowHi-rowLo)*cols)
	at := func(cell int) *cellState { return &local[cell-rowLo*cols] }

	// Restore from the newest committed checkpoint, re-decomposing its
	// shards (written under a possibly different world size) over this
	// communicator by row overlap; without one, light the center tree.
	steps := 0
	var burning []int
	_, shards, restored, err := ckpt.LoadLatest(c, store)
	if err != nil {
		return TrialResult{}, err
	}
	if restored {
		for _, data := range shards {
			var sc slabCkpt
			if err := ckpt.Decode(data, &sc); err != nil {
				return TrialResult{}, err
			}
			steps = sc.Step
			lo, hi := max(rowLo, sc.RowLo), min(rowHi, sc.RowHi)
			for r := lo; r < hi; r++ {
				for col := 0; col < cols; col++ {
					local[(r-rowLo)*cols+col] = cellState(sc.Grid[(r-sc.RowLo)*cols+col])
				}
			}
			for _, cell := range sc.Burning {
				if owns(cell) {
					burning = append(burning, cell)
				}
			}
		}
	} else {
		center := (rows/2)*cols + cols/2
		if owns(center) {
			*at(center) = stateBurning
			burning = append(burning, center)
		}
	}
	// The burned count is derivable from the slab, so shards need not
	// carry it — recount after any restore (slabs partition the rows, so
	// each burned cell is counted exactly once across ranks).
	burnedLocal := 0
	for _, s := range local {
		if s == stateBurned {
			burnedLocal++
		}
	}

	const tagHalo = 11
	sinceSave := 0
	for {
		anyBurning, err := mpi.Allreduce(c, boolToInt(len(burning) > 0), mpi.Combine[int](mpi.Max))
		if err != nil {
			return TrialResult{}, err
		}
		if anyBurning == 0 {
			break
		}
		// Checkpoint at the top of a step: every rank is at the same step
		// count here (the Allreduce is the lockstep fence), so the shards
		// of one version always form a consistent global cut.
		if every > 0 && sinceSave >= every {
			grid := make([]byte, len(local))
			for i, s := range local {
				grid[i] = byte(s)
			}
			shard, err := ckpt.Encode(slabCkpt{Step: steps, RowLo: rowLo, RowHi: rowHi, Grid: grid, Burning: burning})
			if err != nil {
				return TrialResult{}, err
			}
			if _, err := ckpt.Save(c, store, shard); err != nil {
				return TrialResult{}, err
			}
			sinceSave = 0
		}
		sinceSave++
		steps++

		// Flat (from, to) pairs, same wire shape as SimulateDomainMPI: the
		// halo payload stays on the typed fast path / raw TCP framing.
		var localAttacks, toDown, toUp []int
		for _, cell := range burning {
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

		var fromDown, fromUp []int
		if _, _, err := cart.SendrecvShift(0, tagHalo, toDown, toUp, &fromDown, &fromUp); err != nil {
			return TrialResult{}, err
		}

		var next []int
		apply := func(pairs []int) {
			for i := 0; i+1 < len(pairs); i += 2 {
				from, to := pairs[i], pairs[i+1]
				if !owns(to) {
					continue
				}
				if *at(to) == stateTree && igniteDecision(seed, steps, from, to) < prob {
					*at(to) = stateBurning
					next = append(next, to)
				}
			}
		}
		apply(localAttacks)
		apply(fromDown)
		apply(fromUp)
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
