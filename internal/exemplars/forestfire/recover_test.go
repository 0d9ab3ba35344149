package forestfire

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// The survive-and-continue invariant: a domain run that loses ranks to a
// seeded kill plan — before the first checkpoint, mid-run, even the
// bottom slab's owner — still burns exactly the same forest as the
// sequential hash simulation, because the checkpoint replay and the
// re-decomposition over the shrunken world reuse the same counter-based
// ignition hash.

func runRecoverTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan *mpi.FaultPlan, every int) {
	t.Helper()
	const rows, cols = 20, 20
	const prob = 0.6
	const seed = 17
	want := SimulateHash(rows, cols, prob, seed)

	store := ckpt.NewMemStore()
	var mu sync.Mutex
	results := map[int]TrialResult{}
	opts := []mpi.Option{mpi.WithRecovery()}
	if plan != nil {
		opts = append(opts, mpi.WithFaults(*plan))
	}
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			got, err := SimulateDomainRecover(c, rows, cols, prob, seed, store, every)
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
		if got != want {
			t.Fatalf("rank %d: recovered result %+v != sequential %+v", rank, got, want)
		}
	}
	if plan != nil && len(results) == np {
		t.Fatal("fault plan injected no failure: every rank survived")
	}
}

// tagBcast is the runtime's reserved tag for Bcast's tree, which Allreduce
// and the checkpoint collectives end with.
const tagBcast = -3

func killPlan(victim, tag, skipFirst int) *mpi.FaultPlan {
	return &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: tag,
		SkipFirst: skipFirst,
		Action:    mpi.FaultKillRank,
	}}}
}

func TestDomainRecoverNoFailure(t *testing.T) {
	// Checkpointing alone must not perturb the result.
	runRecoverTrial(t, mpi.Run, 4, nil, 2)
}

func TestDomainRecoverKillRank(t *testing.T) {
	cases := []struct {
		name   string
		np     int
		victim int
		tag    int
		skip   int
		every  int
	}{
		{"before-first-checkpoint", 4, 2, mpi.AnyTag, 0, 3},
		{"mid-run", 4, 1, mpi.AnyTag, 25, 2},
		{"rank0-dies", 4, 0, mpi.AnyTag, 12, 2},
		{"np5-late", 5, 3, mpi.AnyTag, 40, 4},
		// Rank 1 dies on its first forward down a Bcast tree, early in the
		// run, while its subtree waits for it.
		{"bcast-forwarder-dies", 5, 1, tagBcast, 0, 6},
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
					runRecoverTrial(t, l.run, tc.np, killPlan(tc.victim, tc.tag, tc.skip), tc.every)
				})
			}
		})
	}
}

// The respawn invariant is stricter than the shrink one: the run must
// finish at the ORIGINAL width — every rank, the respawned one included,
// reports the result — and still bit-equal the sequential burn.
func runRespawnTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan mpi.FaultPlan, every int) {
	t.Helper()
	const rows, cols = 20, 20
	const prob = 0.6
	const seed = 17
	want := SimulateHash(rows, cols, prob, seed)

	store := ckpt.NewMemStore()
	var mu sync.Mutex
	results := map[int]TrialResult{}
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			got, err := SimulateDomainRecover(c, rows, cols, prob, seed, store, every)
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
		if got != want {
			t.Fatalf("rank %d: respawned result %+v != sequential %+v", rank, got, want)
		}
	}
}

func respawnKillPlan(victim, skipFirst int) mpi.FaultPlan {
	return mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: mpi.AnyTag,
		SkipFirst: skipFirst, Count: 1,
		Action: mpi.FaultKillRank,
	}}}
}

func TestDomainRespawnFullWidth(t *testing.T) {
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
		{"before-first-checkpoint", 4, 2, 0, 3},
		{"mid-run", 4, 1, 25, 2},
		{"rank0-dies", 4, 0, 12, 2},
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					runRespawnTrial(t, l.run, tc.np, respawnKillPlan(tc.victim, tc.skip), tc.every)
				})
			}
		})
	}
}

func TestDomainRecoverTwoFailures(t *testing.T) {
	// Two ranks die at different points of the run; the two shrinks compose.
	plan := &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Src: 3, Dst: mpi.AnySource, Tag: mpi.AnyTag, SkipFirst: 5, Action: mpi.FaultKillRank},
		{Src: 1, Dst: mpi.AnySource, Tag: mpi.AnyTag, SkipFirst: 30, Action: mpi.FaultKillRank},
	}}
	runRecoverTrial(t, mpi.Run, 5, plan, 2)
}
