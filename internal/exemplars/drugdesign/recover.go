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

const unscored = -1

// ddCkpt is the master's checkpoint: the score table, unscored entries
// holding the sentinel.
type ddCkpt struct {
	Scores []int
}

// MPIMasterWorkerRecover is MPIMasterWorker for recovery-mode worlds: the
// master checkpoints the score table into store every `every` completed
// results, and on a rank failure every member calls Comm.Recover and
// re-enters, with the (possibly new) master restoring from the last
// committed checkpoint. Under mpi.WithRecovery the round continues on the
// shrunk survivors; under mpi.WithRespawn it continues at the ORIGINAL
// width — a respawned worker simply rejoins the queue, a respawned master
// restores the score table — unless the dead rank departed or will not come
// back, when it shrinks. Every rank that finishes returns the full Result,
// bit-equal to the failure-free run's.
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
		res, err = runMaster(c, ligands, p, store, every)
		if err != nil {
			return Result{}, err
		}
	} else if err := serveTasks(c, ligands, p.Protein); err != nil {
		return Result{}, err
	}
	return mpi.Bcast(c, res, 0)
}

// runMaster drives the work queue: restore the score table, hand unscored
// indices to workers (or score them locally when the world has shrunk to
// one rank), and checkpoint as results land.
func runMaster(c *mpi.Comm, ligands []string, p Params, store ckpt.Store, every int) (Result, error) {
	scores := make([]int, len(ligands))
	for i := range scores {
		scores[i] = unscored
	}
	if data, _, ok, err := ckpt.LoadLocal(store); err != nil {
		return Result{}, err
	} else if ok {
		var saved ddCkpt
		if err := ckpt.Decode(data, &saved); err != nil {
			return Result{}, err
		}
		if len(saved.Scores) != len(scores) {
			return Result{}, fmt.Errorf("drugdesign: checkpoint has %d scores for %d ligands", len(saved.Scores), len(scores))
		}
		copy(scores, saved.Scores)
	}
	var pending []int
	for i, s := range scores {
		if s == unscored {
			pending = append(pending, i)
		}
	}

	if c.Size() == 1 {
		// The world shrank to just the master (or started that way):
		// finish the remaining work sequentially.
		c.Compute(func() {
			var sc scorer
			for _, i := range pending {
				scores[i] = sc.score(ligands[i], p.Protein)
			}
		})
		return collect(ligands, scores), nil
	}

	save := func() error {
		shard, err := ckpt.Encode(ddCkpt{Scores: scores})
		if err != nil {
			return err
		}
		_, err = ckpt.SaveLocal(store, shard)
		return err
	}

	next := 0 // index into pending
	outstanding := 0
	for w := 1; w < c.Size(); w++ {
		if next < len(pending) {
			if err := c.Send(w, tagTask, pending[next]); err != nil {
				return Result{}, err
			}
			next++
			outstanding++
		} else if err := c.Send(w, tagStop, 0); err != nil {
			return Result{}, err
		}
	}
	sinceSave := 0
	for outstanding > 0 {
		// A dead worker never returns its task, so a wildcard receive is
		// the dangerous spot of this protocol — the runtime's ULFM rule
		// (any failed member poisons an AnySource match) turns what would
		// be a silent hang into the retryable error handled one level up.
		var wr workerResult
		st, err := c.Recv(mpi.AnySource, tagResult, &wr)
		if err != nil {
			return Result{}, err
		}
		scores[wr.Index] = wr.Score
		outstanding--
		sinceSave++
		if every > 0 && sinceSave >= every {
			if err := save(); err != nil {
				return Result{}, err
			}
			sinceSave = 0
		}
		if next < len(pending) {
			if err := c.Send(st.Source, tagTask, pending[next]); err != nil {
				return Result{}, err
			}
			next++
			outstanding++
		} else if err := c.Send(st.Source, tagStop, 0); err != nil {
			return Result{}, err
		}
	}
	// Final checkpoint: the completed table, so a failure after this point
	// (e.g. during the closing broadcast) redoes no scoring at all.
	if every > 0 {
		if err := save(); err != nil {
			return Result{}, err
		}
	}
	return collect(ligands, scores), nil
}
