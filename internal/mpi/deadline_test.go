package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDeadlineMutualRecvDeadlock: the classic mutual-receive deadlock — both
// ranks Recv first, nobody has sent — must produce a readable report naming
// both blocked ranks and what each was waiting for, instead of hanging.
func TestDeadlineMutualRecvDeadlock(t *testing.T) {
	var mu sync.Mutex
	var rankErrs []error
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			peer := 1 - c.Rank()
			_, rerr := c.Recv(peer, 7, nil) // deadlock: the sends never happen
			mu.Lock()
			rankErrs = append(rankErrs, rerr)
			mu.Unlock()
			return rerr
		}, WithDeadline(80*time.Millisecond))
	})

	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want a *DeadlineError in the chain", err)
	}
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err = %v, want both ErrDeadlineExceeded and ErrWorldAborted identities", err)
	}

	// The snapshot must cover both ranks, each blocked in a Recv on the
	// other, under the tag they were matching.
	seen := map[int]BlockedOp{}
	for _, op := range derr.Blocked {
		seen[op.Rank] = op
	}
	for rank := 0; rank < 2; rank++ {
		op, ok := seen[rank]
		if !ok {
			t.Fatalf("report %v missing blocked rank %d", derr.Blocked, rank)
		}
		if op.Op != "Recv" || op.Src != 1-rank || op.Tag != 7 {
			t.Fatalf("rank %d reported as %+v, want Recv from %d tag 7", rank, op, 1-rank)
		}
	}

	// The report is human-readable: both ranks and their sources appear in
	// the error text itself.
	text := err.Error()
	for _, want := range []string{"rank 0", "rank 1", "src", "tag"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report %q does not mention %q", text, want)
		}
	}

	// Exactly one rank owns the deadline report; the other fails as a
	// victim of the resulting revoke — never two competing reports.
	mu.Lock()
	defer mu.Unlock()
	var reports, victims int
	for _, re := range rankErrs {
		var d *DeadlineError
		switch {
		// The victim's abort error wraps the report, so the abort identity
		// must be checked first: only the originator returns a bare report.
		case errors.Is(re, ErrWorldAborted):
			victims++
		case errors.As(re, &d):
			reports++
		default:
			t.Fatalf("unexpected rank error %v", re)
		}
	}
	if reports != 1 || victims != 1 {
		t.Fatalf("got %d deadline reports and %d victims, want exactly 1 and 1", reports, victims)
	}
}

// TestDeadlineNotTriggeredByProgress: a deadline bounds each blocking
// operation, not the whole program — a ping-pong that keeps making progress
// under a generous deadline completes normally.
func TestDeadlineNotTriggeredByProgress(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < 50; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, i); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 2, nil); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(peer, 1, nil); err != nil {
					return err
				}
				if err := c.Send(peer, 2, i); err != nil {
					return err
				}
			}
		}
		return nil
	}, WithDeadline(2*time.Second))
	if err != nil {
		t.Fatalf("progressing world hit deadline machinery: %v", err)
	}
}

// TestDeadlineOnProbe: Probe blocks through the same primitive as Recv and
// is reported under its own operation name.
func TestDeadlineOnProbe(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(1, func(c *Comm) error {
			_, perr := c.Probe(0, 3) // self never sends: guaranteed stall
			return perr
		}, WithDeadline(50*time.Millisecond))
	})
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if derr.Op != "Probe" || derr.Src != 0 || derr.Tag != 3 {
		t.Fatalf("report %+v, want Probe on src 0 tag 3", derr)
	}
}

// TestDeadlineOverTCP: WithDeadline is transport-independent; the same
// stalled receive produces the same report on the TCP transport.
func TestDeadlineOverTCP(t *testing.T) {
	err := runWithWatchdog(t, 15*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				_, rerr := c.Recv(1, 9, nil) // rank 1 never sends
				return rerr
			}
			// Rank 1 idles without sending; its own Recv keeps it resident
			// until the revoke reaches it.
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

// TestDeadlineSnapshotOmitsIdleWindowService: a window's service loop waits
// for ops with no deadline by design, and is posted in the mailbox like any
// other blocked receive. The report of a stalled Recv in a world with an idle
// window must still mean "stuck under a deadline": it names both Recvs and no
// WinService entry.
func TestDeadlineSnapshotOmitsIdleWindowService(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if _, err := WinCreate[float64](c, 4); err != nil {
				return err
			}
			// The window is never used or freed; its service sits in its wait
			// while both ranks stall on a receive nobody sends to.
			_, rerr := c.Recv(1-c.Rank(), 7, nil)
			return rerr
		}, WithDeadline(80*time.Millisecond))
	})
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want a *DeadlineError in the chain", err)
	}
	recvs := 0
	for _, op := range derr.Blocked {
		if op.Op != "Recv" || op.Tag != 7 {
			t.Fatalf("blocked snapshot %v names %+v, want only the stalled Recvs", derr.Blocked, op)
		}
		recvs++
	}
	if recvs != 2 {
		t.Fatalf("blocked snapshot %v names %d stalled Recvs, want 2", derr.Blocked, recvs)
	}
}
