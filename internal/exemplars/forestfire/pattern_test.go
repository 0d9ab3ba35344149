package forestfire

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// TestDomainVariantsMessagePattern pins every message the three MPI
// variants send on one forest: the total, the halo tag's share and each
// ordered rank pair. The variants differ only in schedule, restore and
// save, so these counts move only if one of those does. The kill rows in
// recover_test.go count the victim's sends (SkipFirst), and this pin is
// what keeps them aimed where they are.
func TestDomainVariantsMessagePattern(t *testing.T) {
	const np, rows, cols, prob, seed = 4, 20, 20, 0.6, 17
	const tagHalo = 11
	cases := []struct {
		name  string
		run   func(c *mpi.Comm, store ckpt.Store) (TrialResult, error)
		opts  []mpi.Option
		total int
		halo  int
		pairs [np][np]int // pairs[src][dst]
	}{
		{
			name: "mpi",
			run: func(c *mpi.Comm, _ ckpt.Store) (TrialResult, error) {
				return SimulateDomainMPI(c, rows, cols, prob, seed)
			},
			total: 324, halo: 156,
			pairs: [np][np]int{{0, 54, 28, 0}, {54, 0, 26, 28}, {28, 26, 0, 26}, {0, 28, 26, 0}},
		},
		{
			name: "overlap",
			run: func(c *mpi.Comm, _ ckpt.Store) (TrialResult, error) {
				return SimulateDomainOverlap(c, rows, cols, prob, seed)
			},
			total: 330, halo: 162,
			pairs: [np][np]int{{0, 55, 28, 0}, {55, 0, 27, 28}, {28, 27, 0, 27}, {0, 28, 27, 0}},
		},
		{
			name: "recover-every-2",
			run: func(c *mpi.Comm, store ckpt.Store) (TrialResult, error) {
				return SimulateDomainRecover(c, rows, cols, prob, seed, store, 2)
			},
			opts:  []mpi.Option{mpi.WithRecovery()},
			total: 435, halo: 156,
			pairs: [np][np]int{{0, 79, 53, 0}, {66, 0, 26, 53}, {40, 26, 0, 26}, {12, 28, 26, 0}},
		},
	}
	want := SimulateHash(rows, cols, prob, seed)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc := mpi.NewMessageCounter()
			store := ckpt.NewMemStore()
			err := mpi.Run(np, func(c *mpi.Comm) error {
				got, err := tc.run(c, store)
				if err == nil && got != want {
					t.Errorf("rank %d: %+v != sequential %+v", c.Rank(), got, want)
				}
				return err
			}, append(tc.opts, mpi.WithCounter(mc))...)
			if err != nil {
				t.Fatal(err)
			}
			if got := mc.Total(); got != tc.total {
				t.Errorf("total messages %d, want %d", got, tc.total)
			}
			if got := mc.Tag(tagHalo); got != tc.halo {
				t.Errorf("halo messages %d, want %d", got, tc.halo)
			}
			for src := range tc.pairs {
				for dst, n := range tc.pairs[src] {
					if got := mc.Pair(src, dst); got != n {
						t.Errorf("%d -> %d: %d messages, want %d", src, dst, got, n)
					}
				}
			}
		})
	}
}
