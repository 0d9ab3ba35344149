package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Failure semantics on the vector data plane (satellite d): the large-payload
// algorithms are new protocol code, so the failure model must be re-proven on
// them specifically — a rank dying mid-ring and a chunk vanishing
// mid-pipeline are different stall shapes than anything the scalar
// collectives produce.

// TestKillRankMidAllreduceSlice: a seeded fault plan kills one rank on its
// second ring send, in the middle of the reduce-scatter phase. Under
// WithRecovery every survivor's AllreduceSlice must return a retryable
// *RankFailedError — not hang, not return a partial sum — on both the local
// and the TCP transport. Survivors follow the ULFM lifecycle: the ones that
// observe the failure directly Revoke the communicator, which kicks any
// survivor still deep in the ring protocol out with a Revoked
// *RankFailedError.
func TestKillRankMidAllreduceSlice(t *testing.T) {
	const np = 4
	const victim = 2
	const size = 2048 // above vectorThreshold: the ring path is engaged
	plan := FaultPlan{
		Seed:  7,
		Rules: []FaultRule{{Src: victim, Dst: AnySource, Tag: tagVecRed, SkipFirst: 1, Action: FaultKillRank}},
	}
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			observed := map[int]error{}
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(np, func(c *Comm) error {
					v := make([]float64, size)
					for i := range v {
						v[i] = float64(c.Rank() + 1)
					}
					res, rerr := AllreduceSlice(c, v, func(a, b float64) float64 { return a + b })
					if c.Rank() == victim {
						if rerr == nil {
							return fmt.Errorf("victim: AllreduceSlice succeeded after its own kill")
						}
						return rerr // dies as intended; recovery records it
					}
					mu.Lock()
					observed[c.Rank()] = rerr
					mu.Unlock()
					if rerr == nil {
						return fmt.Errorf("survivor %d: AllreduceSlice returned %d elements with a dead peer", c.Rank(), len(res))
					}
					// Unblock any survivor still inside the ring, then report
					// the world recovered.
					return c.Revoke()
				}, WithFaults(plan), WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
			if len(observed) != np-1 {
				t.Fatalf("recorded %d survivor outcomes, want %d", len(observed), np-1)
			}
			for rank, rerr := range observed {
				var rfe *RankFailedError
				if !errors.As(rerr, &rfe) {
					t.Errorf("survivor %d: want *RankFailedError, got %v", rank, rerr)
				}
			}
		})
	}
}

// TestDeadlineMidPipelinedBcastSlice: a dropped chunk stalls the broadcast
// pipeline — one subtree waits forever for a segment that was injected away.
// WithDeadline must convert the stall into the world's single *DeadlineError,
// whose blocked-operation snapshot names a Recv under the pipeline's tag.
func TestDeadlineMidPipelinedBcastSlice(t *testing.T) {
	const np = 4
	const size = 8195 // one bcastChunk of 8192 and a 3-element tail
	// Root's tagVecBcast stream to its two tree kids interleaves as header→1,
	// header→2, then chunk→1, chunk→2 per chunk: 2 + 2·2 = 6 frames.
	// Dropping the 6th — the tail chunk into leaf rank 2 — leaves that rank
	// blocked forever on a receive nothing will ever satisfy. (Dropping a
	// mid-stream chunk is detected as a length-mismatch protocol error
	// instead, because the FIFO shifts a later chunk into the gap.)
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 0, Dst: AnySource, Tag: tagVecBcast, SkipFirst: 5, Count: 1, Action: FaultDrop}},
	}
	for _, tc := range []struct {
		name string
		run  func(np int, main func(c *Comm) error, opts ...Option) error
	}{
		{"local", Run},
		{"tcp", RunTCP},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := runWithWatchdog(t, 20*time.Second, func() error {
				return tc.run(np, func(c *Comm) error {
					v := make([]float64, size)
					for i := range v {
						v[i] = float64(i)
					}
					_, berr := BcastSlice(c, v, 0)
					return berr
				}, WithFaults(plan), WithDeadline(150*time.Millisecond))
			})

			var derr *DeadlineError
			if !errors.As(err, &derr) {
				t.Fatalf("err = %v, want a *DeadlineError in the chain", err)
			}
			if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, ErrWorldAborted) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded and ErrWorldAborted identities", err)
			}
			// The snapshot pinpoints the stall: somebody is blocked in a Recv
			// under the pipeline's reserved tag.
			found := false
			for _, op := range derr.Blocked {
				if op.Op == "Recv" && op.Tag == tagVecBcast {
					found = true
				}
			}
			if !found {
				t.Fatalf("blocked snapshot %v names no Recv under tagVecBcast", derr.Blocked)
			}
		})
	}
}
