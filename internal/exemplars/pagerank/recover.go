package pagerank

import (
	"errors"

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

// PageRankRecover is PageRankMPI for recovery-mode worlds: it checkpoints
// the rank vector every `every` iterations into store, and when a rank
// failure surfaces it calls Comm.Recover, restores the last committed
// checkpoint over the world Recover returns, and continues. The world's
// relaunch budget decides that world: the original width with the dead rank
// relaunched into its slot while the budget lasts (mpi.WithRespawn), the
// shrunk survivors once the rank departed or is gone for good (at once under
// mpi.WithRecovery). The
// ranks return the same fixed point as a failure-free run, up to
// floating-point reassociation under a changed partition.
func PageRankRecover(c *mpi.Comm, g *Graph, damping float64, iters int, store ckpt.Store, every int) ([]float64, error) {
	comm := c
	for {
		pr, err := pageRankCkpt(comm, g, damping, iters, store, every)
		if !errors.Is(err, mpi.ErrRankFailed) {
			return pr, err
		}
		if comm, err = comm.Recover(); err != nil {
			return nil, err
		}
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
	return mpi.AllgatherSlice(c, pr)
}
