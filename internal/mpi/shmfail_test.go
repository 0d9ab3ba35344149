package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Failure semantics on the shared-memory transport: WithDeadline,
// fault-injected kills, and survive-and-continue recovery all behave as
// they do on the local and TCP transports — including the shm-specific
// hazard of a rank dying mid-rendezvous with staged blocks outstanding.
// The generic failure tables in faults_test.go and recover_test.go also
// run over shm; these tests cover what is unique to staged large messages.

// TestDeadlineOverShm: WithDeadline is transport-independent; a stalled
// receive on the shm transport produces the same deadline report as
// everywhere else.
func TestDeadlineOverShm(t *testing.T) {
	skipNoShm(t)
	err := runWithWatchdog(t, 15*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				_, rerr := c.Recv(1, 9, nil) // rank 1 never sends
				return rerr
			}
			_, rerr := c.Recv(0, 9, nil)
			return rerr
		}, WithDeadline(100*time.Millisecond))
	})
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err = %v, want a deadline/abort failure", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline report", err)
	}
}

// TestShmFaultKillMidRendezvous: a FaultKillRank rule fires between two
// rendezvous sends — the sender dies with staged traffic in flight, the
// world is revoked, and the receiver's blocked recv is released with the
// killed rank named.
func TestShmFaultKillMidRendezvous(t *testing.T) {
	skipNoShm(t)
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 1, Action: FaultKillRank}},
	}
	big := make([]float64, 64<<10) // 512 KiB: rendezvous
	err := runWithWatchdog(t, 15*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 1 {
				if err := c.Send(0, 4, big); err != nil {
					return err
				}
				return c.Send(0, 4, big) // the kill fires here
			}
			if _, err := c.Recv(1, 4, nil); err != nil {
				return err
			}
			_, rerr := c.Recv(1, 4, nil) // never arrives: the revoke must unblock it
			return rerr
		}, WithFaults(plan))
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err = %v, want ErrWorldAborted", err)
	}
	if !errors.Is(err, ErrRankKilled) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v, want the injected kill of rank 1 surfaced", err)
	}
}

// TestShmRecoveryReclaimsOrphanedRendezvous: under WithRecovery a rank dies
// mid-rendezvous with a backlog of staged large messages addressed to it.
// Survivors observe a retryable *RankFailedError, the sender's orphaned
// staging region is reclaimed (OutstandingLargeBytes drains to zero), and
// the survivors keep communicating — the world reports success.
func TestShmRecoveryReclaimsOrphanedRendezvous(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)
	big := make([]float64, 64<<10) // 512 KiB: rendezvous; 8 fill a pair's region
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(3, func(c *Comm) error {
			switch c.Rank() {
			case 2:
				// Receive one staged message, then die with the sender's
				// backlog still staged (and some of it blocked on a full
				// region).
				if _, err := c.Recv(0, 1, nil); err != nil {
					return err
				}
				return errors.New("deliberate mid-rendezvous death")
			case 0:
				// Flood rank 2 with rendezvous traffic until its failure
				// surfaces. A send already in flight when the peer departs
				// is dropped (nil) — the hub's failure broadcast may land
				// a beat later — so keep sending until the error arrives.
				var ferr error
				for deadline := time.Now().Add(15 * time.Second); ; {
					if err := c.Send(2, 1, big); err != nil {
						ferr = err
						break
					}
					if time.Now().After(deadline) {
						return errors.New("rank 2's death never surfaced to the sender")
					}
				}
				var rfe *RankFailedError
				if !errors.As(ferr, &rfe) || !errors.Is(ferr, ErrRankFailed) {
					return fmt.Errorf("send err = %v, want *RankFailedError", ferr)
				}
				// The dead peer's staging region must be reclaimed even
				// though it will never free the blocks itself.
				st := obs.get(0)
				deadline := time.Now().Add(2 * time.Second)
				for st.statsSnapshot().OutstandingLargeBytes != 0 {
					if time.Now().After(deadline) {
						return fmt.Errorf("%d staged bytes never reclaimed after peer death",
							st.statsSnapshot().OutstandingLargeBytes)
					}
					time.Sleep(time.Millisecond)
				}
				// Survivors still talk over shm after the reclaim.
				return c.Send(1, 2, big)
			default: // rank 1
				// Blocked on the dead rank: released with the retryable error.
				_, rerr := c.Recv(2, 1, nil)
				var rfe *RankFailedError
				if !errors.As(rerr, &rfe) {
					return fmt.Errorf("recv err = %v, want *RankFailedError", rerr)
				}
				var v []float64
				if _, err := c.Recv(0, 2, &v); err != nil {
					return err
				}
				if len(v) != len(big) {
					return fmt.Errorf("post-recovery payload len %d, want %d", len(v), len(big))
				}
				return nil
			}
		}, WithRecovery())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmPeerFailedAfterCloseIsHarmless: the hub reader goroutine outlives
// the rank's main, so a failure notice can reach the endpoint after Close
// unmapped the segment. The hook must then leave the segment alone — it used
// to load a word of unmapped memory and take the whole process down with a
// fault (seen in about one -race package run in forty).
func TestShmPeerFailedAfterCloseIsHarmless(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)
	if err := RunShm(2, func(c *Comm) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		obs.get(rank).peerFailed(1 - rank)
	}
}
