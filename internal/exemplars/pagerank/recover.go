package pagerank

import (
	"errors"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// Survive-and-continue PageRank. The iteration state is just the owned
// slice of the rank vector plus the iteration counter — the graph is a pure
// function of its parameters and the exchange plan is rebuilt from it — so
// a checkpoint shard is small and self-describing, and after a Shrink the
// survivors re-decompose any old set of shards over the new block partition
// by range overlap, exactly the forest-fire slab discipline.

// prCkpt is one rank's checkpoint shard: the owned block of the rank vector
// at the top of iteration Iter.
type prCkpt struct {
	Iter   int
	Lo, Hi int // global vertex range this shard covers: [Lo, Hi)
	Pr     []float64
}

// PageRankRecover is PageRankMPI for recovery-mode worlds
// (mpi.WithRecovery): it checkpoints the rank vector every `every`
// iterations into store, and when a rank failure surfaces it revokes the
// communicator, shrinks to the survivors, restores the last committed
// checkpoint over the smaller world, and continues. The surviving ranks
// return the same fixed point as a failure-free run, up to floating-point
// reassociation under the changed partition.
func PageRankRecover(c *mpi.Comm, g *Graph, damping float64, iters int, store ckpt.Store, every int) ([]float64, error) {
	comm := c
	for {
		pr, err := pageRankCkpt(comm, g, damping, iters, store, every)
		if err == nil {
			return pr, nil
		}
		if !errors.Is(err, mpi.ErrRankFailed) {
			return nil, err
		}
		if rerr := comm.Revoke(); rerr != nil {
			return nil, rerr
		}
		nc, serr := comm.Shrink()
		if serr != nil {
			return nil, serr
		}
		comm = nc
	}
}

// PageRankRespawn is PageRankRecover for respawn-mode worlds
// (mpi.WithRespawn): a rank failure waits up to `wait` for the launcher to
// relaunch the dead rank into its old slot and re-enters at the original
// width; if the relaunch never arrives, it degrades to shrink-and-continue.
func PageRankRespawn(c *mpi.Comm, g *Graph, damping float64, iters int, store ckpt.Store, every int, wait time.Duration) ([]float64, error) {
	comm := c
	for {
		pr, err := pageRankCkpt(comm, g, damping, iters, store, every)
		if err == nil {
			return pr, nil
		}
		if !errors.Is(err, mpi.ErrRankFailed) {
			return nil, err
		}
		nc, rerr := comm.Restored(wait)
		if rerr != nil {
			if !errors.Is(rerr, mpi.ErrRestoreTimeout) {
				return nil, rerr
			}
			if verr := comm.Revoke(); verr != nil {
				return nil, verr
			}
			if nc, rerr = comm.Shrink(); rerr != nil {
				return nil, rerr
			}
		}
		comm = nc
	}
}

// pageRankCkpt runs the iteration from the last committed checkpoint (or
// from the uniform start) to completion, saving every `every` iterations. A
// rank failure anywhere inside surfaces as a retryable error wrapping
// mpi.ErrRankFailed; the caller recovers and re-enters.
func pageRankCkpt(c *mpi.Comm, g *Graph, damping float64, iters int, store ckpt.Store, every int) ([]float64, error) {
	lo, hi := vrange(g.N, c.Rank(), c.Size())
	pr := uniform(g.N, hi-lo)
	it0 := 0
	_, shards, restored, err := ckpt.LoadLatest(c, store)
	if err != nil {
		return nil, err
	}
	if restored {
		for _, data := range shards {
			var sc prCkpt
			if err := ckpt.Decode(data, &sc); err != nil {
				return nil, err
			}
			it0 = sc.Iter
			for v := max(lo, sc.Lo); v < min(hi, sc.Hi); v++ {
				pr[v-lo] = sc.Pr[v-sc.Lo]
			}
		}
	}

	x, err := newExchange(c, g, pr)
	if err != nil {
		return nil, err
	}
	for it := it0; it < iters; it++ {
		// Checkpoint at the top of an iteration: every rank is at the same
		// count here (the previous iteration's collectives are the lockstep
		// fence), so one version's shards always form a consistent cut.
		if every > 0 && it > 0 && it != it0 && it%every == 0 {
			shard, err := ckpt.Encode(prCkpt{Iter: it, Lo: lo, Hi: hi, Pr: pr})
			if err != nil {
				return nil, err
			}
			if _, err := ckpt.Save(c, store, shard); err != nil {
				return nil, err
			}
		}
		if err := x.step(c, damping); err != nil {
			return nil, err
		}
	}
	return gatherFull(c, pr, g.N)
}
