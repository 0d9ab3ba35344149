package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestErrorsComposeWithStdlib is the table-driven contract for how the
// package's error types interoperate with errors.Is / errors.As: a caller
// already handling stdlib timeouts handles MPI deadlines for free, and the
// recovery and abort errors expose both their sentinel and their cause.
func TestErrorsComposeWithStdlib(t *testing.T) {
	deadline := &DeadlineError{Rank: 1, Op: "Recv", Src: 0, Tag: 5, Timeout: time.Second}
	killCause := fmt.Errorf("%w: rank 2 (fault plan, on send to rank 0 tag 1)", ErrRankKilled)
	rfe := &RankFailedError{Ranks: []int{2}, cause: killCause}
	rfeRevoked := &RankFailedError{Ranks: []int{2, 3}, Revoked: true, cause: killCause}
	aborted := &abortError{cause: killCause}

	cases := []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"DeadlineError is ErrDeadlineExceeded", deadline, ErrDeadlineExceeded, true},
		{"DeadlineError is context.DeadlineExceeded", deadline, context.DeadlineExceeded, true},
		{"DeadlineError is not ErrRankFailed", deadline, ErrRankFailed, false},
		{"sentinel ErrDeadlineExceeded is context.DeadlineExceeded", ErrDeadlineExceeded, context.DeadlineExceeded, true},
		{"RankFailedError is ErrRankFailed", rfe, ErrRankFailed, true},
		{"RankFailedError unwraps to its cause", rfe, ErrRankKilled, true},
		{"RankFailedError is not a deadline", rfe, ErrDeadlineExceeded, false},
		{"revoked RankFailedError is ErrRankFailed", rfeRevoked, ErrRankFailed, true},
		{"abortError is ErrWorldAborted", aborted, ErrWorldAborted, true},
		{"abortError unwraps to its cause", aborted, ErrRankKilled, true},
		{"abortError is not a deadline", aborted, ErrDeadlineExceeded, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errors.Is(tc.err, tc.target); got != tc.want {
				t.Fatalf("errors.Is(%v, %v) = %v, want %v", tc.err, tc.target, got, tc.want)
			}
		})
	}

	t.Run("errors.As extracts RankFailedError", func(t *testing.T) {
		wrapped := fmt.Errorf("outer: %w", rfeRevoked)
		var got *RankFailedError
		if !errors.As(wrapped, &got) {
			t.Fatal("errors.As failed to extract *RankFailedError")
		}
		if !got.Revoked || len(got.Ranks) != 2 {
			t.Fatalf("extracted wrong value: %+v", got)
		}
	})
	t.Run("errors.As extracts DeadlineError", func(t *testing.T) {
		wrapped := fmt.Errorf("outer: %w", deadline)
		var got *DeadlineError
		if !errors.As(wrapped, &got) {
			t.Fatal("errors.As failed to extract *DeadlineError")
		}
		if got.Rank != 1 || got.Op != "Recv" {
			t.Fatalf("extracted wrong value: %+v", got)
		}
	})
}

// TestErrorsComposeLiveDeadline runs a real mutual-Recv deadlock and checks
// the error the launcher reports composes with both sentinels end to end.
func TestErrorsComposeLiveDeadline(t *testing.T) {
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			_, err := c.Recv(1-c.Rank(), 3, nil)
			return err
		}, WithDeadline(80*time.Millisecond))
	})
	if err == nil {
		t.Fatal("mutual Recv should deadlock and trip the deadline")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("launcher error should match ErrDeadlineExceeded: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("launcher error should match context.DeadlineExceeded: %v", err)
	}
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Errorf("launcher error should carry a *DeadlineError: %v", err)
	}
}

// TestKillAttributionOverDeadline is the regression for kill-rank
// attribution: a rank killed mid-exchange leaves its peers stalled, and with
// WithDeadline armed the visible symptom used to be a cascading
// *DeadlineError on a survivor. The report must instead attribute the stall
// to the injected kill: the run's error matches ErrRankKilled, not the
// deadline sentinel, and the FaultReport names the killed rank.
func TestKillAttributionOverDeadline(t *testing.T) {
	var rep FaultReport
	plan := FaultPlan{Rules: []FaultRule{{
		Src: 1, Dst: AnySource, Tag: AnyTag, Action: FaultKillRank,
	}}}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 1 {
				err := c.Send(0, 7, 42) // first send trips the kill
				if err == nil {
					return fmt.Errorf("rank 1 expected the injected kill")
				}
				// A real crashed process vanishes without reporting: linger
				// past the survivors' deadline so the stall is observed while
				// this rank's failure is still only the injected kill.
				time.Sleep(400 * time.Millisecond)
				return err
			}
			_, err := c.Recv(1, 7, nil) // stalls: the message was never sent
			return err
		}, WithDeadline(100*time.Millisecond), WithFaults(plan), WithFaultReport(&rep))
	})
	if err == nil {
		t.Fatal("run with a killed rank should fail")
	}
	if !errors.Is(err, ErrRankKilled) {
		t.Errorf("stall should be attributed to the injected kill, got %v", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("kill must not be misattributed to a cascading deadline: %v", err)
	}
	inj := rep.Injected()
	if len(inj) == 0 {
		t.Fatal("FaultReport recorded no injected faults")
	}
	for _, f := range inj {
		if f.Action == FaultKillRank && f.Src != 1 {
			t.Errorf("FaultReport recorded a kill of rank %d, want rank 1 only: %+v", f.Src, f)
		}
	}
	if inj[0].Action != FaultKillRank || inj[0].Src != 1 || inj[0].Rule != 0 {
		t.Errorf("first injected fault = %+v, want kill of rank 1 by rule 0", inj[0])
	}
}
