package mpi

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// World abort (ULFM-style revoke) and deadline diagnosis. The paper's whole
// setting is students running message-passing programs on flaky remote
// substrates, where one wedged or crashed rank is the normal failure mode
// and the classroom answer must be a clear error, never a silent hang. When
// any rank fails, the runtime marks the world aborted and poisons every
// surviving rank's mailbox, so blocked receives, pending requests, and
// in-flight collectives return ErrWorldAborted (wrapping the originating
// rank's error) instead of blocking forever. WithDeadline adds the second
// half: a stuck receive turns into a *DeadlineError carrying a snapshot of
// who waits on whom, so a classic mutual-Recv deadlock produces a readable
// report rather than a frozen terminal.

// abortError wraps the originating failure of a revoked world. It matches
// ErrWorldAborted under errors.Is, and Unwrap exposes the cause so
// errors.Is also finds the failing rank's own error.
type abortError struct {
	cause error
}

func (e *abortError) Error() string        { return "mpi: world aborted: " + e.cause.Error() }
func (e *abortError) Unwrap() error        { return e.cause }
func (e *abortError) Is(target error) bool { return target == ErrWorldAborted }

// remoteAbortError is the cause of an abort that arrived over the wire from
// another process: the originating rank's error survives only as text, so
// errors.Is identity with the original sentinel is lost but the rank
// attribution is kept. RunTCP uses the type to tell victims (remote cause)
// from originators (local cause) when picking which error to report.
type remoteAbortError struct {
	rank int // originating world rank; -1 when the hub itself failed
	msg  string
}

func (e *remoteAbortError) Error() string { return e.msg }

// abort revokes the world with the given cause (already rank-attributed).
// The first cause wins; later calls are no-ops. Every mailbox this process
// holds is poisoned so its blocked and future operations fail immediately.
func (w *World) abort(cause error) {
	w.abortMu.Lock()
	if w.abortCause != nil {
		w.abortMu.Unlock()
		return
	}
	w.abortCause = cause
	w.abortMu.Unlock()
	w.abortedFlag.Store(true)
	err := &abortError{cause: cause}
	for _, b := range w.boxes {
		if b != nil {
			b.fail(err)
		}
	}
	if w.recov != nil {
		// Recovery does not survive a revoked world: release every blocked
		// agreement with the abort error so no agreeing member hangs.
		w.recov.abortPending(err)
	}
}

// Abort revokes the world with the given cause (MPI_Abort): every rank's
// pending and future operations fail with ErrWorldAborted wrapping cause,
// and the launch (Run, RunTCP, a platform Launch) returns it. Unlike a
// rank returning an error, Abort may be called from ANY goroutine holding
// a Comm — it is how an external supervisor (the job scheduler's cancel
// path, a wall-clock job timeout) stops a world whose ranks are all
// blocked deep in communication. The first cause latched wins; later
// aborts, including rank failures racing this call, are no-ops. For
// multi-process worlds the revoke takes effect in the calling process;
// remote processes observe it when the hub tears the world down.
func (c *Comm) Abort(cause error) {
	if cause == nil {
		cause = fmt.Errorf("mpi: rank %d called Abort", c.rank)
	}
	c.world.abort(cause)
}

// abortErr returns the world's abort error, or nil if the world is healthy.
// The flag is an atomic so the send hot path pays one load, not a lock.
func (w *World) abortErr() error {
	if !w.abortedFlag.Load() {
		return nil
	}
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return &abortError{cause: w.abortCause}
}

// BlockedOp describes one rank's blocked receive, as reported in a
// DeadlineError: the deadlock-diagnosis unit. Rank is a world rank; Src and
// Tag are what the operation is matching on (communicator-local source,
// AnySource/AnyTag for wildcards) within communicator context Ctx.
type BlockedOp struct {
	Rank   int
	Op     string // the blocked operation: "Recv"
	Ctx    int64
	Src    int
	Tag    int
	Waited time.Duration
}

func (b BlockedOp) String() string {
	return fmt.Sprintf("rank %d: %s(src %s, tag %s, ctx %d) blocked %s",
		b.Rank, b.Op, wildcardStr(b.Src, AnySource, "any"), wildcardStr(b.Tag, AnyTag, "any"),
		b.Ctx, b.Waited)
}

func wildcardStr(v, wildcard int, name string) string {
	if v == wildcard {
		return name
	}
	return fmt.Sprintf("%d", v)
}

// DeadlineError reports a receive that outlived the WithDeadline
// budget, together with a snapshot of every operation blocked in this
// process at that moment — for in-process worlds (Run) that is the full
// who-waits-on-whom picture, the readable form of a deadlock. It matches
// ErrDeadlineExceeded under errors.Is.
type DeadlineError struct {
	Rank    int    // world rank whose operation timed out
	Op      string // the blocked operation: "Recv"
	Ctx     int64
	Src     int
	Tag     int
	Timeout time.Duration
	Blocked []BlockedOp // all blocked operations at the time of the report
}

func (e *DeadlineError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: rank %d %s(src %s, tag %s) exceeded the %s deadline",
		e.Rank, e.Op, wildcardStr(e.Src, AnySource, "any"), wildcardStr(e.Tag, AnyTag, "any"), e.Timeout)
	if len(e.Blocked) > 0 {
		b.WriteString("; blocked operations:")
		for _, op := range e.Blocked {
			b.WriteString("\n  ")
			b.WriteString(op.String())
		}
	}
	return b.String()
}

// Is matches both the package sentinel and context.DeadlineExceeded, so a
// caller already handling stdlib timeouts handles MPI deadlines for free.
func (e *DeadlineError) Is(target error) bool {
	return target == ErrDeadlineExceeded || target == context.DeadlineExceeded
}

// WithDeadline bounds every blocking receive in the world by d. A
// stuck operation fails with a *DeadlineError naming every blocked rank and
// its pending (src, tag) — and the first breach revokes the world, so its
// peers unblock with ErrWorldAborted rather than each burning a full
// deadline of their own. Zero (the default) disables the machinery
// entirely; it costs nothing when off. The deadline is per blocked
// operation, not per program: a slow but progressing program never trips
// it.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// blockedOps snapshots every blocked receive across the mailboxes
// this process holds, ordered by rank. In a JoinTCP world only the local
// rank's mailbox exists, so the report covers just that rank; in-process
// worlds see all ranks.
func (w *World) blockedOps() []BlockedOp {
	var out []BlockedOp
	for rank, b := range w.boxes {
		if b != nil {
			out = b.appendBlocked(out, rank)
		}
	}
	return out
}

// deadlineFired builds the deadline report for one timed-out operation and
// revokes the world with it. Reports are serialized under reportMu, and a
// waiter stays registered in its mailbox until its report (or abort error)
// is returned — so the first rank to time out in a mutual deadlock is
// guaranteed to see its peers in the snapshot, and every later rank returns
// the world's single abort error instead of racing to produce a second,
// partial report.
func (w *World) deadlineFired(rank int, op string, ctx int64, src, tag int) error {
	w.reportMu.Lock()
	defer w.reportMu.Unlock()
	if err := w.abortErr(); err != nil {
		return err
	}
	// Attribution check: if the fault plan already killed a rank, this stall
	// is a downstream casualty of that kill, not an independent deadlock.
	// Attribute the failure to the injected fault so the report names the
	// true cause instead of a cascading deadline.
	if w.faults != nil {
		if killed := w.faults.killedRanks(); len(killed) > 0 {
			cause := fmt.Errorf("mpi: rank %d %s(src %s, tag %s) stalled after the fault plan killed rank(s) %v: %w",
				rank, op, wildcardStr(src, AnySource, "any"), wildcardStr(tag, AnyTag, "any"), killed, ErrRankKilled)
			w.abort(cause)
			return cause
		}
	}
	derr := &DeadlineError{
		Rank:    rank,
		Op:      op,
		Ctx:     ctx,
		Src:     src,
		Tag:     tag,
		Timeout: w.deadline,
		Blocked: w.blockedOps(),
	}
	w.abort(fmt.Errorf("mpi: rank %d: %w", rank, derr))
	return derr
}
