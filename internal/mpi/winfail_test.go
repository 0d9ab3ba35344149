package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Failure semantics on the one-sided layer: RMA epochs are new protocol code
// (acks, lock grants, a service goroutine), so the failure model must be
// re-proven on them specifically. A rank dying mid-epoch leaves origins
// waiting for acks that will never come and barriers that will never form —
// both must surface as the retryable *RankFailedError under WithRecovery,
// or as the world's single *DeadlineError under WithDeadline, never a hang.

// TestKillRankMidWinEpoch: a seeded fault plan kills one rank on its first
// window-protocol send (its Put header on the frame transports, its Lock
// request on the direct-path ones), in the middle of a fence epoch. Every
// survivor's Fence must return a retryable *RankFailedError — whether the
// stall is a missing ack (frame path) or a missing barrier token (direct
// path) — and a subsequent op addressed to the dead rank must fail fast at
// the origin without touching the protocol. Runs on all three transports.
func TestKillRankMidWinEpoch(t *testing.T) {
	const np = 4
	const victim = 2
	plan := FaultPlan{
		Seed:  11,
		Rules: []FaultRule{{Src: victim, Dst: AnySource, Tag: tagWinBase, Action: FaultKillRank}},
	}
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			observed := map[int]error{}
			// The victim holds its fatal op until every survivor is out of
			// WinCreate: a collective's exit is not synchronized, and a
			// survivor still inside it when the failure notice lands would
			// fail there, before the epoch under test.
			var created sync.WaitGroup
			created.Add(np - 1)
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(np, func(c *Comm) error {
					w, err := WinCreate[float64](c, 16)
					if err != nil {
						return err
					}
					if c.Rank() == victim {
						created.Wait()
					} else {
						created.Done()
					}
					block := make([]float64, 16)
					for i := range block {
						block[i] = float64(c.Rank())
					}
					right := (c.Rank() + 1) % np
					if c.Rank() == victim {
						// The epoch's ops: the Put header is the first tagOp
						// frame on the frame transports; on direct-path
						// transports the Put is a memcpy and the Lock request
						// is the first frame. Either way the plan kills this
						// rank inside the epoch.
						if err := w.Put(right, 0, block); err != nil {
							return err
						}
						if err := w.Lock(0); err != nil {
							return err
						}
						return fmt.Errorf("victim: survived its own kill")
					}
					// The whole epoch is the unit under test: a survivor whose
					// Put addresses the victim may already fail fast there,
					// the rest stall in Fence — either is the retryable error.
					ferr := func() error {
						if err := w.Put(right, 0, block); err != nil {
							return err
						}
						return w.Fence()
					}()
					mu.Lock()
					observed[c.Rank()] = ferr
					mu.Unlock()
					if ferr == nil {
						return fmt.Errorf("survivor %d: Fence succeeded with a dead peer", c.Rank())
					}
					// Fail-fast gate: with the failure observed, an op toward
					// the dead rank is refused at the origin.
					if perr := w.Put(victim, 0, block); perr == nil {
						return fmt.Errorf("survivor %d: Put to the dead rank succeeded", c.Rank())
					}
					return c.revoke()
				}, WithFaults(plan), WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
			if len(observed) != np-1 {
				t.Fatalf("recorded %d survivor outcomes, want %d", len(observed), np-1)
			}
			for rank, ferr := range observed {
				var rfe *RankFailedError
				if !errors.As(ferr, &rfe) {
					t.Errorf("survivor %d: want *RankFailedError from Fence, got %v", rank, ferr)
				}
			}
		})
	}
}

// TestWinDeadlineStalledFence: a dropped completion ack stalls the origin's
// Fence in its flush — waiting for a receive nothing will satisfy — and
// WithDeadline must convert the stall into the world's *DeadlineError whose
// blocked-operation snapshot names the Recv under the window's ack tag.
// It runs over TCP, whose windows take the frame path: direct-path ops have
// no acks to lose. Each rank joins the hub itself, so only rank 0's deadline
// can fire: rank 1, blocked in the Fence behind rank 0, has a deadline past
// the watchdog, and a TCP rank's snapshot holds only its own operations.
func TestWinDeadlineStalledFence(t *testing.T) {
	const tagAck0 = tagWinBase - 2 // window 0's ack tag
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 1, Dst: 0, Tag: tagAck0, Count: 1, Action: FaultDrop}},
	}
	t.Run("tcp", func(t *testing.T) {
		hub, err := StartHub("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		deadlines := []time.Duration{150 * time.Millisecond, time.Minute}
		errs := make([]error, 2)
		err = runWithWatchdog(t, 20*time.Second, func() error {
			var wg sync.WaitGroup
			for rank := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[rank] = JoinTCP(hub.Addr(), rank, 2, func(c *Comm) error {
						w, err := WinCreate[float64](c, 8)
						if err != nil {
							return err
						}
						if err := w.Put(1-c.Rank(), 0, make([]float64, 8)); err != nil {
							return err
						}
						return w.Fence()
					}, WithFaults(plan), WithDeadline(deadlines[rank]))
				}()
			}
			wg.Wait()
			return errs[0]
		})
		var derr *DeadlineError
		if !errors.As(err, &derr) {
			t.Fatalf("rank 0: err = %v, want a *DeadlineError in the chain", err)
		}
		if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, ErrWorldAborted) {
			t.Fatalf("rank 0: err = %v, want ErrDeadlineExceeded and ErrWorldAborted identities", err)
		}
		found := false
		for _, op := range derr.Blocked {
			if op.Op == "Recv" && op.Tag == tagAck0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("blocked snapshot %v names no Recv under the window ack tag", derr.Blocked)
		}
		if !errors.Is(errs[1], ErrWorldAborted) || errors.As(errs[1], &derr) {
			t.Fatalf("rank 1: err = %v, want the revoke of rank 0's deadline, not a deadline of its own", errs[1])
		}
	})
}
