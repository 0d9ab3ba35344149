package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// runWithWatchdog fails the test if fn does not return within the budget —
// the revoke machinery's whole point is that failures never hang.
func runWithWatchdog(t *testing.T, budget time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		t.Fatal("world did not terminate: revoke failed to unblock a rank")
		return nil
	}
}

// TestRunRankFailureUnblocksBlockedPeers: one rank fails while its peers sit
// in receives that will never be satisfied; the revoke must fail those
// receives promptly instead of deadlocking the world.
func TestRunRankFailureUnblocksBlockedPeers(t *testing.T) {
	var mu sync.Mutex
	var peerErrs []error
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 2 {
				return errDeliberate
			}
			// No rank ever sends: without the revoke this blocks forever.
			_, rerr := c.Recv(AnySource, 0, nil)
			mu.Lock()
			peerErrs = append(peerErrs, rerr)
			mu.Unlock()
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("Run err = %v, want ErrWorldAborted identity", err)
	}
	if !errors.Is(err, errDeliberate) {
		t.Fatalf("Run err = %v, want it to wrap the originating failure", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("Run err = %v, want the failing rank named", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(peerErrs) != 2 {
		t.Fatalf("got %d unblocked peers, want 2", len(peerErrs))
	}
	for _, pe := range peerErrs {
		if !errors.Is(pe, ErrWorldAborted) || !errors.Is(pe, errDeliberate) {
			t.Fatalf("peer Recv err = %v, want ErrWorldAborted wrapping the cause", pe)
		}
	}
}

// TestRunPanicUnblocksPeers: a panic is a failure like any other — converted
// to a rank-attributed error and propagated through the revoke.
func TestRunPanicUnblocksPeers(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				panic("kaboom-revoke")
			}
			_, rerr := c.Recv(1, 0, nil)
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err = %v, want ErrWorldAborted identity", err)
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "kaboom-revoke") {
		t.Fatalf("err = %v, want the panicking rank and message named", err)
	}
}

// TestAbortUnblocksCollectives: survivors stuck inside a collective (here a
// dissemination barrier waiting on the dead rank's round message) observe
// the revoke too — collectives are built on the same poisoned mailboxes.
func TestAbortUnblocksCollectives(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 1 {
				return errDeliberate
			}
			return c.Barrier()
		})
	})
	if !errors.Is(err, ErrWorldAborted) || !errors.Is(err, errDeliberate) {
		t.Fatalf("err = %v, want ErrWorldAborted wrapping the cause", err)
	}
}

// TestAbortParityAcrossTransports: the revoke contract — ErrWorldAborted
// identity, originating error in the chain, failing rank named — holds
// verbatim on the typed local transport and the TCP transport.
func TestAbortParityAcrossTransports(t *testing.T) {
	main := func(c *Comm) error {
		if c.Rank() == 1 {
			return errDeliberate
		}
		_, rerr := c.Recv(1, 0, nil)
		return rerr
	}
	cases := []struct {
		name    string
		run     func() error
		wrapped bool // errors.Is can reach the sentinel through the chain
	}{
		{"local-fast", func() error { return Run(3, main) }, true},
		{"tcp", func() error { return RunTCP(3, main) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runWithWatchdog(t, 15*time.Second, tc.run)
			if !errors.Is(err, ErrWorldAborted) {
				t.Fatalf("err = %v, want ErrWorldAborted identity", err)
			}
			if tc.wrapped && !errors.Is(err, errDeliberate) {
				t.Fatalf("err = %v, want the originating error in the chain", err)
			}
			if !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("err = %v, want the failing rank named", err)
			}
		})
	}
}

// TestSendAfterAbortFails: once the world is revoked, sends fail fast with
// the abort error instead of queueing frames nobody will read.
func TestSendAfterAbortFails(t *testing.T) {
	var sendErr error
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return errDeliberate
			}
			_, rerr := c.Recv(1, 0, nil) // observe the revoke
			if rerr == nil {
				return fmt.Errorf("recv unexpectedly succeeded")
			}
			sendErr = c.Send(1, 0, 42)
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("Run err = %v, want ErrWorldAborted", err)
	}
	if !errors.Is(sendErr, ErrWorldAborted) {
		t.Fatalf("Send after revoke = %v, want ErrWorldAborted", sendErr)
	}
}

// TestAbortUnblocksIrecv: a pending nonblocking receive's Wait observes the
// revoke as well.
func TestAbortUnblocksIrecv(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return errDeliberate
			}
			var v int
			req := c.Irecv(1, 0, &v)
			_, werr := req.Wait()
			return werr
		})
	})
	if !errors.Is(err, ErrWorldAborted) || !errors.Is(err, errDeliberate) {
		t.Fatalf("err = %v, want ErrWorldAborted wrapping the cause", err)
	}
}

// TestJoinTCPAbortPropagates: with an explicit hub and separate JoinTCP
// calls — the real distributed layout — a failing rank revokes the world
// for its peer, and the hub's Wait reports the originating rank.
func TestJoinTCPAbortPropagates(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			errs[rank] = JoinTCP(hub.Addr(), rank, 2, func(c *Comm) error {
				if c.Rank() == 0 {
					return errDeliberate
				}
				_, rerr := c.Recv(0, 0, nil)
				return rerr
			})
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("workers did not terminate after a rank failure")
	}

	if !errors.Is(errs[0], ErrWorldAborted) || !errors.Is(errs[0], errDeliberate) {
		t.Fatalf("originator err = %v, want ErrWorldAborted wrapping its own failure", errs[0])
	}
	if !errors.Is(errs[1], ErrWorldAborted) || !strings.Contains(errs[1].Error(), "rank 0") {
		t.Fatalf("victim err = %v, want ErrWorldAborted naming rank 0", errs[1])
	}
	hubErr := hub.Wait()
	if !errors.Is(hubErr, ErrWorldAborted) || !strings.Contains(hubErr.Error(), "rank 0") {
		t.Fatalf("hub.Wait = %v, want the revoke naming rank 0", hubErr)
	}
}

// TestLowestOriginatorWinsOverVictims: ranks that fail because of the revoke
// (their error carries the ErrWorldAborted identity) never displace the
// originating failure in Run's report.
func TestLowestOriginatorWinsOverVictims(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 2 {
				return errDeliberate
			}
			_, rerr := c.Recv(2, 0, nil) // ranks 0 and 1 become victims
			return rerr
		})
	})
	// Ranks 0 and 1 fail "first" by rank order, but only as victims; the
	// report must still blame rank 2.
	if !strings.Contains(err.Error(), "rank 2") || !errors.Is(err, errDeliberate) {
		t.Fatalf("err = %v, want the originating rank 2 blamed", err)
	}
}

// TestExternalAbortUnblocksWorld: Comm.Abort called from a goroutine
// OUTSIDE the world (the job scheduler's cancel path) fails every blocked
// rank promptly, and Run reports ErrWorldAborted wrapping the supervisor's
// cause — the contract an external cancel button needs.
func TestExternalAbortUnblocksWorld(t *testing.T) {
	cause := errors.New("job canceled by operator")
	captured := make(chan *Comm, 1)
	// The supervisor: waits for any rank to hand over its comm, then aborts
	// the world from outside it — no rank ever returns an error itself.
	go func() {
		c := <-captured
		time.Sleep(10 * time.Millisecond) // let the ranks block in Recv
		c.Abort(cause)
	}()
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 0 {
				captured <- c
			}
			// No rank ever sends: only the external abort can end this.
			_, rerr := c.Recv(AnySource, 0, nil)
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("Run err = %v, want ErrWorldAborted identity", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Run err = %v, want the supervisor's cause preserved", err)
	}
}

// TestAbortNilCause: a nil cause still aborts, with a rank-attributed
// placeholder instead of a nil dereference.
func TestAbortNilCause(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Abort(nil)
			}
			_, rerr := c.Recv(AnySource, 0, nil)
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("Run err = %v, want ErrWorldAborted identity", err)
	}
}
