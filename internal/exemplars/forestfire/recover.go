package forestfire

import (
	"errors"

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
// checkpoint over the world Recover returns, and continues. The world's
// relaunch budget decides that world: while the dead rank is relaunched
// (mpi.WithRespawn) it is the ORIGINAL width, a respawned incarnation
// entering here fresh and meeting the survivors at the checkpoint restore;
// once the rank departed or is gone for good (at once under
// mpi.WithRecovery) it is the shrunk survivors. Every rank that finishes
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
	s, err := newSlab(c, rows, cols, prob, seed)
	if err != nil {
		return TrialResult{}, err
	}
	cart, err := mpi.NewCart(c, []int{c.Size()}, nil)
	if err != nil {
		return TrialResult{}, err
	}
	steps, restored, err := s.restore(c, store)
	if err != nil {
		return TrialResult{}, err
	}
	if !restored {
		s.ignite()
	}

	sinceSave := 0
	return s.run(c, cart, steps, func(step int) error {
		// Checkpoint at the top of a step: every rank is at the same step
		// count here (the Allreduce is the lockstep fence), so the shards
		// of one version always form a consistent global cut.
		if every > 0 && sinceSave >= every {
			grid := make([]byte, len(s.cells))
			for i, st := range s.cells {
				grid[i] = byte(st)
			}
			shard, err := ckpt.Encode(slabCkpt{Step: step, RowLo: s.lo, RowHi: s.hi, Grid: grid, Burning: s.burning})
			if err != nil {
				return err
			}
			if _, err := ckpt.Save(c, store, shard); err != nil {
				return err
			}
			sinceSave = 0
		}
		sinceSave++
		return nil
	})
}

// restore loads the newest committed checkpoint, re-decomposing its shards
// (written under a possibly different world size) over this slab by row
// overlap, and returns the completed step count. It reports false, and
// leaves the slab untouched, when there is no checkpoint.
func (s *slab) restore(c *mpi.Comm, store ckpt.Store) (steps int, restored bool, err error) {
	_, shards, restored, err := ckpt.LoadLatest(c, store)
	if err != nil || !restored {
		return 0, false, err
	}
	for _, data := range shards {
		var sc slabCkpt
		if err := ckpt.Decode(data, &sc); err != nil {
			return 0, false, err
		}
		steps = sc.Step
		lo, hi := max(s.lo, sc.RowLo), min(s.hi, sc.RowHi)
		for cell := lo * s.cols; cell < hi*s.cols; cell++ {
			*s.at(cell) = cellState(sc.Grid[cell-sc.RowLo*s.cols])
		}
		for _, cell := range sc.Burning {
			if s.owns(cell) {
				s.burning = append(s.burning, cell)
			}
		}
	}
	// The burned count is derivable from the slab, so shards need not
	// carry it — recount after the restore (slabs partition the rows, so
	// each burned cell is counted exactly once across ranks).
	for _, st := range s.cells {
		if st == stateBurned {
			s.burned++
		}
	}
	return steps, true, nil
}
