package drugdesign

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// TestMasterWorkerMessagePattern pins the work queue's messages for both
// master-worker variants: one task and one result per ligand, one stop per
// worker and the closing Bcast. The queue is dynamic, so which worker gets
// which ligand is not pinned, only how many messages of each kind travel.
// The kill rows in recover_test.go count the victim's sends (SkipFirst),
// and this pin is what keeps them aimed where they are.
func TestMasterWorkerMessagePattern(t *testing.T) {
	const np = 4
	p := DefaultParams()
	p.NumLigands = 40
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(c *mpi.Comm, store ckpt.Store) (Result, error)
		opts []mpi.Option
	}{
		{"mpi", func(c *mpi.Comm, _ ckpt.Store) (Result, error) { return MPIMasterWorker(c, p) }, nil},
		{"recover-every-8", func(c *mpi.Comm, store ckpt.Store) (Result, error) {
			return MPIMasterWorkerRecover(c, p, store, 8)
		}, []mpi.Option{mpi.WithRecovery()}},
	}
	wantTags := map[int]int{tagTask: 40, tagResult: 40, tagStop: np - 1, tagBcast: np - 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc := mpi.NewMessageCounter()
			store := ckpt.NewMemStore()
			err := mpi.Run(np, func(c *mpi.Comm) error {
				got, err := tc.run(c, store)
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d: %+v != sequential %+v", c.Rank(), got, want)
				}
				return err
			}, append(tc.opts, mpi.WithCounter(mc))...)
			if err != nil {
				t.Fatal(err)
			}
			if got := mc.Total(); got != 86 {
				t.Errorf("total messages %d, want 86", got)
			}
			for tag, n := range wantTags {
				if got := mc.Tag(tag); got != n {
					t.Errorf("tag %d: %d messages, want %d", tag, got, n)
				}
			}
		})
	}
}
