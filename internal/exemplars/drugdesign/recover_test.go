package drugdesign

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// The survive-and-continue invariant for the master-worker pattern: a run
// that loses workers — or the master itself — to a seeded kill plan still
// reports exactly the Sequential result, because the score table is
// idempotent and the checkpoint re-queues precisely the unscored ligands.
//
// solo > 0 names a worker that serves the queue alone until its run ends;
// the other workers stay out until then. The queue is dynamic, so nothing
// else promises a worker more than its priming task: a kill armed on a
// worker's k-th send fires by construction — and on a result, not on a
// forwarded closing broadcast — only while that worker is the one returning
// results.
func runDDRecoverTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan *mpi.FaultPlan, every, solo int) {
	t.Helper()
	p := DefaultParams()
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}

	store := ckpt.NewMemStore()
	var mu sync.Mutex
	results := map[int]Result{}
	opts := []mpi.Option{mpi.WithRecovery()}
	if plan != nil {
		opts = append(opts, mpi.WithFaults(*plan))
	}
	soloOver := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			switch {
			case c.Rank() == solo:
				defer close(soloOver)
			case solo > 0 && c.Rank() != 0:
				<-soloOver
			}
			got, err := MPIMasterWorkerRecover(c, p, store, every)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
			return nil
		}, opts...)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered run should report success, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("recovery run wedged")
	}
	if len(results) == 0 {
		t.Fatal("no survivor returned a result")
	}
	for rank, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: recovered result %+v != sequential %+v", rank, got, want)
		}
	}
	if plan != nil && len(results) == np {
		t.Fatal("fault plan injected no failure: every rank survived")
	}
}

// tagBcast is the runtime's reserved tag for Bcast's tree: a kill armed on
// it fires while the victim forwards the closing broadcast.
const tagBcast = -3

func ddKillPlan(victim, tag, skipFirst int) *mpi.FaultPlan {
	return &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: tag,
		SkipFirst: skipFirst,
		Action:    mpi.FaultKillRank,
	}}}
}

func TestMasterWorkerRecoverNoFailure(t *testing.T) {
	runDDRecoverTrial(t, mpi.Run, 4, nil, 8, 0)
}

func TestMasterWorkerRecoverKills(t *testing.T) {
	cases := []struct {
		name   string
		np     int
		victim int
		tag    int
		skip   int
		every  int
		solo   int
	}{
		{"worker-before-first-checkpoint", 4, 2, mpi.AnyTag, 0, 10, 0},
		// 16 results in: only a worker serving alone is sure to get that far.
		{"worker-mid-queue", 4, 3, mpi.AnyTag, 15, 5, 3},
		{"master-dies", 4, 0, mpi.AnyTag, 9, 4, 0},
		{"master-dies-late", 5, 0, mpi.AnyTag, 60, 8, 0},
		// Rank 1 dies forwarding the closing Bcast to rank 3: ranks 0, 2 and
		// 3 return, and rank 4, which never gets the result, shrinks past
		// them (they departed) and finishes from the final checkpoint.
		{"bcast-forwarder-dies", 5, 1, tagBcast, 0, 6, 0},
	}
	launchers := []struct {
		name string
		run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
	}{
		{"local", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					runDDRecoverTrial(t, l.run, tc.np, ddKillPlan(tc.victim, tc.tag, tc.skip), tc.every, tc.solo)
				})
			}
		})
	}
}

// The respawn invariant for the master-worker pattern: a killed worker —
// or the master — comes back into its old slot, the queue finishes at
// the ORIGINAL width (every rank reports the result), and the Result is
// still bit-equal to Sequential's.
func runDDRespawnTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan mpi.FaultPlan, every int) {
	t.Helper()
	p := DefaultParams()
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}

	store := ckpt.NewMemStore()
	var mu sync.Mutex
	results := map[int]Result{}
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			got, err := MPIMasterWorkerRecover(c, p, store, every)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
			return nil
		}, mpi.WithRespawn(), mpi.WithFaults(plan))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("respawned run should report success, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("respawn run wedged")
	}
	if len(results) != np {
		t.Fatalf("%d of %d ranks finished: the world did not return to full width", len(results), np)
	}
	for rank, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: respawned result %+v != sequential %+v", rank, got, want)
		}
	}
}

func ddRespawnKillPlan(victim, skipFirst int) mpi.FaultPlan {
	return mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: mpi.AnyTag,
		SkipFirst: skipFirst, Count: 1,
		Action: mpi.FaultKillRank,
	}}}
}

func TestMasterWorkerRespawnFullWidth(t *testing.T) {
	launchers := []struct {
		name string
		run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
	}{
		{"local", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	if mpi.ShmSupported() {
		launchers = append(launchers, struct {
			name string
			run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
		}{"shm", mpi.RunShm})
	}
	cases := []struct {
		name   string
		np     int
		victim int
		skip   int
		every  int
	}{
		{"worker-before-first-checkpoint", 4, 2, 0, 10},
		{"worker-mid-queue", 4, 3, 15, 5},
		{"master-dies", 4, 0, 9, 4},
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					runDDRespawnTrial(t, l.run, tc.np, ddRespawnKillPlan(tc.victim, tc.skip), tc.every)
				})
			}
		})
	}
}

func TestMasterWorkerRecoverTwoWorkersDie(t *testing.T) {
	// Shrink twice: np=5 loses two workers at different points, finishing
	// with a master and two workers. Rank 1 serves alone until its 4th result
	// kills it; left to the scheduler, its 4th send was now and then its
	// forward of the closing broadcast, which strands the subtree below it
	// (ROADMAP, adversarial correctness). Rank 4 only ever sends results.
	plan := &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Src: 1, Dst: mpi.AnySource, Tag: mpi.AnyTag, SkipFirst: 3, Action: mpi.FaultKillRank},
		{Src: 4, Dst: mpi.AnySource, Tag: mpi.AnyTag, SkipFirst: 20, Action: mpi.FaultKillRank},
	}}
	runDDRecoverTrial(t, mpi.Run, 5, plan, 6, 1)
}

func TestMasterWorkerRecoverShrinkToOne(t *testing.T) {
	// np=2 and the worker dies: the master finishes the queue alone via
	// the sequential path.
	runDDRecoverTrial(t, mpi.Run, 2, ddKillPlan(1, mpi.AnyTag, 7), 10, 0)
}
