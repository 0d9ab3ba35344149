package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Survive-and-continue recovery (the opt-in half of the failure model).
// Under WithRecovery a rank's failure no longer revokes the world: the
// runtime records the failed rank, wakes every survivor blocked on a
// communicator operation, and surfaces the failure as a retryable
// *RankFailedError. Survivors then call Comm.Recover, which runs the ULFM
// lifecycle: revoke the working communicator (so stragglers deep in the old
// protocol fail out too), agree on the membership, and continue at full
// width once every failed rank is relaunched, or shrunk once one is gone for
// good: the relaunch budget (0 for WithRecovery) decides. The program
// restores state from a checkpoint and continues.
//
// The design keeps the healthy path untouched: every recovery check is
// gated on a single atomic load of an event counter that stays zero until
// the first failure or revoke, so a recovery-enabled world that never
// fails pays (and is pinned to) the same ping-pong cost as a plain one.

// RankFailedError reports that a peer rank failed while the world runs in
// recovery mode. It is retryable: the world is still alive, and the caller
// should Recover its working communicator, restore from a checkpoint, and
// continue on the surviving ranks. It matches ErrRankFailed
// under errors.Is, and Unwrap exposes the first failed rank's own error
// (when known locally), so e.g. an injected kill still matches
// ErrRankKilled through it.
type RankFailedError struct {
	Ranks   []int // world ranks known failed when the operation was interrupted
	Revoked bool  // the operation's communicator had been revoked
	cause   error // first failed rank's own error; may be nil on remote observers
}

func (e *RankFailedError) Error() string {
	if len(e.Ranks) == 0 && !e.Revoked {
		// A respawn restored the world's membership while the operation was
		// pending (or the communicator predates the current epoch): nobody is
		// failed now, but the operation cannot complete against the old view.
		return "mpi: world membership changed during the operation; re-form with Recover and retry"
	}
	what := fmt.Sprintf("mpi: rank(s) %v failed", e.Ranks)
	if e.Revoked {
		what = fmt.Sprintf("mpi: communicator revoked after rank failure(s) %v", e.Ranks)
	}
	return what + "; world continues under recovery (Recover to proceed)"
}

func (e *RankFailedError) Is(target error) bool { return target == ErrRankFailed }
func (e *RankFailedError) Unwrap() error        { return e.cause }

// WithRecovery opts the world into survive-and-continue semantics: a rank
// that returns an error or panics is recorded as failed instead of revoking
// the world; survivors' pending operations return a retryable
// *RankFailedError, and Comm.Recover lets them re-form and continue. Its
// relaunch budget is 0: a failed rank is gone at once, and Recover shrinks
// past it. Run and RunTCP report success if at least one rank completes and
// the world was never revoked outright. Explicit aborts and deadline
// breaches still revoke the world.
func WithRecovery() Option {
	return func(c *config) { c.recovery, c.relaunches = true, 0 }
}

// recoveryState is the per-World failure ledger plus the agreement binding.
// In-process worlds (Run) share one instance across all ranks and decide
// agreements in it; each JoinTCP process holds its own, synchronized through
// hub control frames, and waits in it for the hub's decisions.
type recoveryState struct {
	world *World

	// events gates every recovery check on the hot paths: it is bumped on
	// each failure and revoke, and while it is zero all checks short-circuit
	// on one atomic load.
	events      atomic.Uint64
	failVersion atomic.Uint64 // bumped on failures only; pending ops capture it at start

	mu sync.Mutex
	// m is the world's membership (agree.go). Its epoch counts full-width
	// restorations (relaunches): operations on communicators created in an
	// older epoch fail with a retryable membership-changed error, and
	// restored hands back a current-epoch communicator. restoreCond (on mu)
	// wakes restored callers on a rejoin or an abort.
	m           membership
	failed      map[int]error // each failed rank's own error, for RankFailedError to unwrap
	revoked     map[ctxKey]bool
	restoreCond *sync.Cond

	ctrlSend func(frame) error // TCP worlds: raw control-plane sender to the hub
	downErr  error             // latched when the world aborts; fails pending agreements
	insts    agreements        // open instances (in-process) or waiters for the hub (TCP)
}

func newRecoveryState(w *World) *recoveryState {
	r := &recoveryState{
		world:   w,
		failed:  make(map[int]error),
		revoked: make(map[ctxKey]bool),
		insts:   make(agreements),
	}
	r.restoreCond = sync.NewCond(&r.mu)
	return r
}

// rankFailed records a failed world rank, as decided at epoch (-1: now), and
// interrupts every survivor's pending operations. Safe to call from any
// goroutine; duplicates and stale notices are no-ops. cause may be the
// rank's own error (local observation) or a description built from a control
// frame (TCP).
func (w *World) rankFailed(rank, epoch int, cause error) {
	r := w.recov
	r.mu.Lock()
	if epoch < 0 {
		epoch = r.m.epoch
	}
	if !r.m.fail(rank, epoch) {
		r.mu.Unlock()
		return
	}
	r.failed[rank] = cause
	r.settleLocked()
	r.mu.Unlock()
	r.failVersion.Add(1)
	r.events.Add(1)
	w.pokeAll()
	if w.peerFailed != nil {
		// Transport hook: the shm transport reclaims the failed rank's
		// outbound staging region and unwedges blocked senders.
		w.peerFailed(rank)
	}
}

// rankRejoined restores a respawned rank to the world's membership at epoch
// (-1: the next one, for in-process worlds, where all ranks share this
// state; the hub's, on TCP). In the critical section that bumps the epoch,
// every open agreement of an older epoch fails with a retryable
// membership-changed error — its member list describes the old world —
// before any restored caller can wake and open the new epoch's. Pending
// operations on older-epoch communicators are interrupted the same way.
func (w *World) rankRejoined(rank int, epoch int) {
	r := w.recov
	if r == nil {
		return
	}
	cause := &RankFailedError{} // membership changed; nobody failed now
	r.mu.Lock()
	if epoch < 0 {
		epoch = r.m.epoch + 1
	}
	if !r.m.rejoin(rank, epoch) {
		r.mu.Unlock()
		return
	}
	delete(r.failed, rank)
	r.insts.dropOlder(epoch, cause)
	r.mu.Unlock()
	r.failVersion.Add(1)
	r.events.Add(1)
	w.pokeAll()
	r.restoreCond.Broadcast()
	if w.peerRejoined != nil {
		// Transport hook: the shm transport pins the pair to the rejoined
		// rank onto the TCP fallback (the respawned process shares no
		// segment with the survivors).
		w.peerRejoined(rank)
	}
}

// rankDeparted records that a rank's main returned nil: agreements stop
// waiting for it, shrink leaves it out, and restored can no longer restore
// the full width. In-process worlds only; the hub records a TCP rank's
// departure at its done frame.
func (w *World) rankDeparted(rank int) {
	r := w.recov
	r.mu.Lock()
	if r.m.depart(rank) {
		r.settleLocked()
	}
	r.mu.Unlock()
}

// rankGone records that a failed rank will not come back (DESIGN.md §5) and
// wakes the restored callers waiting for it.
func (w *World) rankGone(rank int) {
	r := w.recov
	r.mu.Lock()
	r.m.abandon(rank)
	r.mu.Unlock()
	r.restoreCond.Broadcast()
}

// pokeAll wakes every blocked receive so it re-checks the recovery state.
func (w *World) pokeAll() {
	for _, b := range w.boxes {
		if b != nil {
			b.poke()
		}
	}
}

// seedEpoch installs membership state learned at join time: a respawned TCP
// worker starts life already in the hub's epoch, with the hub's view of the
// failed and gone ranks. Bumping events arms the recovery checks so
// operations on pre-epoch communicators are interrupted from the first call.
func (r *recoveryState) seedEpoch(epoch int, failed, gone rankSet) {
	if epoch <= 0 && failed.empty() {
		return
	}
	r.mu.Lock()
	r.m.epoch = max(r.m.epoch, epoch)
	r.mu.Unlock()
	r.events.Add(1)
	for _, rank := range failed.list() {
		r.world.rankFailed(rank, epoch, fmt.Errorf("%w: rank %d (failed before this process joined)", ErrRankFailed, rank))
	}
	for _, rank := range gone.list() {
		r.world.rankGone(rank)
	}
}

// isFailed reports whether a world rank is in the failed set. Blocked shm
// senders consult it so a send to a failed peer drops instead of spinning.
func (r *recoveryState) isFailed(rank int) bool {
	if r.events.Load() == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.failed.has(rank)
}

// rfeLocked builds a RankFailedError from the current failed set. Caller
// holds r.mu.
func (r *recoveryState) rfeLocked(revoked bool) *RankFailedError {
	ranks := r.m.failed.list()
	var cause error
	if len(ranks) > 0 {
		cause = r.failed[ranks[0]]
	}
	return &RankFailedError{Ranks: ranks, Revoked: revoked, cause: cause}
}

// opErr decides whether a blocked receive must be interrupted. An
// operation fails when its communicator was revoked; when any rank failed
// after the operation started (startFail is the failVersion captured at op
// entry) — the "pending operations are interrupted" rule; when its named
// source is a failed rank; or, for AnySource, when ANY other member of the
// communicator is failed — ULFM's wildcard rule: the match can never again
// be guaranteed once a potential sender is dead, and deciding by the failed
// set (not by when the receive started) closes the race where a failure
// lands between a caller's own liveness check and its receive. Named-source
// operations started after a failure otherwise proceed — survivors must be
// able to talk to each other while recovering.
func (r *recoveryState) opErr(c *Comm, srcWorld int, startFail uint64) error {
	if r.events.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.revokedLocked(c) {
		return r.rfeLocked(true)
	}
	if c.epoch < r.m.epoch {
		// The communicator predates a respawn: its view of the membership is
		// stale even though nobody may be failed right now. Re-form through
		// restored. (Checked before the empty-failed shortcut: a rejoin
		// empties the failed set but must still interrupt pending work.)
		return r.rfeLocked(false)
	}
	if r.failVersion.Load() > startFail {
		return r.rfeLocked(false)
	}
	if srcWorld >= 0 {
		if r.m.failed.has(srcWorld) {
			return r.rfeLocked(false)
		}
		return nil
	}
	// AnySource: any failed member of this communicator poisons the match.
	if slices.ContainsFunc(c.ranks, r.m.failed.has) {
		return r.rfeLocked(false)
	}
	return nil
}

// sendErr rejects sends into a revoked context, on a stale-epoch
// communicator, or to a failed rank: opErr's rules for a named peer, with
// no failure counted as after the start.
func (r *recoveryState) sendErr(c *Comm, dstWorld int) error {
	return r.opErr(c, dstWorld, math.MaxUint64)
}

// revokedLocked reports whether c's owner, c itself or the user
// communicator under it, is revoked. The runtime's own sub-communicators —
// the hierarchical intra-node/leader comms and the progress engine's shadow
// comm, in their owner's block of ids — are implementation details of their
// owner's collectives, so revoking the owner must kick members blocked
// inside a two-level phase or a posted schedule too. (A rank whose node
// peers are all alive never waits on the failed rank directly, so without
// this inheritance it would sleep through the revoke.) User communicators
// from Split own their blocks and keep ULFM's rule: revocation does not
// inherit. Caller holds r.mu.
func (r *recoveryState) revokedLocked(c *Comm) bool {
	return r.revoked[c.owner]
}

// revokeCtx marks one user communicator revoked and wakes blocked waiters.
// It reports whether this call changed anything (first revoke).
func (w *World) revokeCtx(key ctxKey) bool {
	r := w.recov
	r.mu.Lock()
	if r.revoked[key] {
		r.mu.Unlock()
		return false
	}
	r.revoked[key] = true
	r.mu.Unlock()
	r.events.Add(1)
	w.pokeAll()
	return true
}

// ErrRestoreTimeout reports that restoring the full width gave up: the
// restore agreement named a member that departed or that the coordinator
// marked gone for good (DESIGN.md §5), so every member of it gives up
// together. No member gives up on a clock of its own. Recover continues
// without the missing ranks.
var ErrRestoreTimeout = errors.New("mpi: world not restored to full width")

// gaveUp is restored's ErrRestoreTimeout naming the final ranks. Its text is
// built only when read, and Recover drops it unread.
type gaveUp rankSet

func (e gaveUp) Error() string {
	return fmt.Sprintf("%v: ranks %v departed or will not come back", ErrRestoreTimeout, rankSet(e).list())
}
func (e gaveUp) Is(target error) bool { return target == ErrRestoreTimeout }

// restored waits until every failed rank is respawned into its old slot or
// gone for good, agrees on the membership, and returns the communicator to
// continue on. While the epoch is the one c was made in, it agrees over c's
// members, so the result has c's shape; after a relaunch, which moves the
// epoch, every live rank agrees over the epoch's world communicator, since
// the relaunched rank holds nothing else. An empty decision is the full
// width. One naming departed or gone members is final: every member returns
// ErrRestoreTimeout naming them, with the communicator of the rest, built
// from that one decision. It has no timeout, and with a relaunch budget of 0
// no wait: the coordinator marks a failed rank gone at once.
func (c *Comm) restored() (*Comm, error) {
	w := c.world
	r := w.recov
	if r == nil {
		return nil, fmt.Errorf("mpi: Recover requires WithRecovery")
	}
	rc := c
	for {
		r.mu.Lock()
		for r.downErr == nil && !r.m.failed.minus(r.m.gone).empty() {
			r.restoreCond.Wait() // until each failed rank has rejoined or is gone
		}
		err, epoch := r.downErr, r.m.epoch
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if rc.epoch != epoch {
			rc = w.epochComm(c, epoch)
		}
		// Decided-empty means every member saw the same membership; a
		// failure or rejoin racing the agreement makes it go around. Departed
		// and gone members are final in the decision every member reads, so
		// all of them give up here together.
		d, err := rc.agree()
		if errors.Is(err, ErrRankFailed) || err == nil && !d.mask.empty() && d.final.empty() {
			continue
		}
		if err != nil {
			return nil, err
		}
		nc, err := rc.without(d.mask, d.ctx)
		if err == nil && !d.final.empty() {
			err = gaveUp(d.final)
		}
		return nc, err
	}
}

// Recover is the one call to make after an operation failed with a
// retryable *RankFailedError; it returns the communicator to continue on.
// It revokes c, so members blocked in the old protocol fail out to their own
// Recover, then restores c (restored) without the departed and gone ranks;
// after a relaunch, every live rank's Recover re-forms the world instead.
func (c *Comm) Recover() (*Comm, error) {
	if err := c.revoke(); err != nil {
		return nil, err
	}
	nc, err := c.restored()
	if errors.Is(err, ErrRestoreTimeout) {
		err = nil // nc is the communicator of the rest
	}
	return nc, err
}

// revoke marks the communicator's message context revoked everywhere:
// every member's pending and future operations on it fail with a
// *RankFailedError whose Revoked field is set (MPIX_Comm_revoke). It is
// how a survivor that detected a failure kicks peers still blocked deep in
// the old protocol out to the recovery path; Recover calls it before it
// shrinks or restores.
// Requires WithRecovery; it is not collective and any member may call it.
func (c *Comm) revoke() error {
	w := c.world
	if w.recov == nil {
		return fmt.Errorf("mpi: Recover requires WithRecovery")
	}
	changed := w.revokeCtx(c.owner)
	if changed && w.recov.ctrlSend != nil {
		// Fan the revoke out through the hub so remote members observe it.
		if err := w.recov.ctrlSend(frame{Ctx: c.ctx, Src: c.owner.lead, Dst: ctrlDst, Tag: tagRevoke}); err != nil {
			return err
		}
	}
	return nil
}

// FailedRanks reports the communicator-local ranks currently known failed,
// sorted (MPIX_Comm_failure_ack + get_acked, collapsed). Unlike Recover's
// agreement it
// is purely local: different members may transiently observe different
// sets.
func (c *Comm) FailedRanks() []int {
	w := c.world
	if w.recov == nil {
		return nil
	}
	w.recov.mu.Lock()
	defer w.recov.mu.Unlock()
	var out []int
	for i, wr := range c.ranks {
		if w.recov.m.failed.has(wr) {
			out = append(out, i)
		}
	}
	return out
}
