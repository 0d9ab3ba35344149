package drugdesign

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// Survive-and-continue variant of the master-worker pattern. The work
// queue is idempotent — scores[i] depends only on ligand i — so the
// checkpoint is simply the master's score table with a not-yet-scored
// sentinel, and recovery re-queues exactly the unscored indices. The
// master itself is NOT a single point of failure: after a Shrink the new
// rank 0 reloads the last committed table from the shared store and takes
// over, redoing only the work completed since that checkpoint.

// ddCkpt is the master's checkpoint: the score table, unscored entries
// holding the sentinel.
type ddCkpt struct {
	Scores []int
}

// MPIMasterWorkerRecover is MPIMasterWorker for recovery-mode worlds: the
// master checkpoints the score table into store every `every` completed
// results, and on a rank failure every member calls Comm.Recover and
// re-enters, with the (possibly new) master restoring from the last
// committed checkpoint. The world's relaunch budget decides the width it
// continues at: while the dead rank is relaunched (mpi.WithRespawn) the
// ORIGINAL width — a respawned worker simply rejoins the queue, a respawned
// master restores the score table — and once it departed or is gone for
// good (at once under mpi.WithRecovery) the shrunk survivors. Every rank
// that finishes returns the full Result, bit-equal to the failure-free
// run's.
func MPIMasterWorkerRecover(c *mpi.Comm, p Params, store ckpt.Store, every int) (Result, error) {
	comm := c
	for {
		res, err := masterWorkerCkpt(comm, p, store, every)
		if !errors.Is(err, mpi.ErrRankFailed) {
			return res, err
		}
		if comm, err = comm.Recover(); err != nil {
			return Result{}, err
		}
	}
}

// masterWorkerCkpt runs one master-worker round to completion from the
// last committed checkpoint. A rank failure anywhere inside surfaces as a
// retryable error wrapping mpi.ErrRankFailed.
func masterWorkerCkpt(c *mpi.Comm, p Params, store ckpt.Store, every int) (Result, error) {
	ligands, err := GenerateLigands(p)
	if err != nil {
		return Result{}, err
	}

	var res Result
	if c.Rank() == 0 {
		scores, err := restoreScores(store, len(ligands))
		if err != nil {
			return Result{}, err
		}
		sinceSave := 0
		save := func(done bool) error {
			sinceSave++
			// The final checkpoint is the completed table, so a failure
			// after it (e.g. during the closing broadcast) redoes no
			// scoring at all.
			if every <= 0 || !done && sinceSave < every {
				return nil
			}
			sinceSave = 0
			shard, err := ckpt.Encode(ddCkpt{Scores: scores})
			if err != nil {
				return err
			}
			_, err = ckpt.SaveLocal(store, shard)
			return err
		}
		if res, err = runMaster(c, ligands, p.Protein, scores, save); err != nil {
			return Result{}, err
		}
	} else if err := serveTasks(c, ligands, p.Protein); err != nil {
		return Result{}, err
	}
	return mpi.Bcast(c, res, 0)
}

// restoreScores returns the score table of the last committed checkpoint,
// or an all-unscored table when there is none.
func restoreScores(store ckpt.Store, n int) ([]int, error) {
	data, _, ok, err := ckpt.LoadLocal(store)
	if err != nil || !ok {
		return unscoredTable(n), err
	}
	var saved ddCkpt
	if err := ckpt.Decode(data, &saved); err != nil {
		return nil, err
	}
	if len(saved.Scores) != n {
		return nil, fmt.Errorf("drugdesign: checkpoint has %d scores for %d ligands", len(saved.Scores), n)
	}
	return saved.Scores, nil
}
