package mpi

import (
	"fmt"
	"sync"
	"time"
)

// Comm is one rank's handle on a communicator: a group of ranks with an
// isolated message namespace. The world communicator covers all ranks of a
// Run; Split derives smaller groups, as in MPI_Comm_split.
type Comm struct {
	world *World
	ctx   int64
	owner ctxKey // c, or the user communicator whose block ctx lies in (split.go)
	rank  int    // this process's rank within the communicator
	ranks []int  // world rank of each communicator rank

	// agreeSeq numbers the agreements made on this communicator. All
	// members make collective calls in the same order (an MPI requirement),
	// so the sequence identifies each agreement instance consistently
	// across members without any extra communication.
	agreeSeq uint64

	// winSeq numbers the WinCreate calls (win.go) the same way: all members
	// create windows in the same collective order, so the sequence — and
	// therefore each window's reserved tag block and registry key — is
	// identical on every member without communication.
	winSeq int64

	// epoch is the world-membership epoch this communicator was created in.
	// Respawn recovery bumps the world's epoch each time a failed rank
	// rejoins at full width; operations on communicators from an older
	// epoch fail with a retryable membership-changed error until the caller
	// re-forms through Comm.Recover (which returns a current-epoch
	// communicator). Zero for every communicator of a never-respawned world.
	epoch int

	// flatOnly marks the runtime's own hierarchy sub-communicators
	// (hier.go): collectives on them must run the flat algorithms, or the
	// two-level construction would recurse.
	flatOnly bool

	// hierOnce/hierSt lazily cache the communicator's two-level topology
	// view (nil when the topology is degenerate or hierarchy is off); see
	// Comm.hier. progOnce/prog lazily build the nonblocking progress engine
	// and its shadow communicator; see Comm.progress.
	hierOnce sync.Once
	hierSt   *hierState
	progOnce sync.Once
	prog     *progressEngine

	cells []any // one *segCells[T] per element type (vectorrecv.go)
	token int   // a Barrier round's token lands here, not in a heap int
	offs  []int // AllgatherSlice's per-rank lengths and block offsets (vector.go)
}

// Rank reports this process's rank within the communicator, 0-based:
// MPI_Comm_rank / comm.Get_rank().
func (c *Comm) Rank() int { return c.rank }

// Size reports how many ranks the communicator spans: MPI_Comm_size /
// comm.Get_size().
func (c *Comm) Size() int { return len(c.ranks) }

// ProcessorName reports the name of the node this rank runs on:
// MPI.Get_processor_name().
func (c *Comm) ProcessorName() string { return c.world.names[c.worldRank(c.rank)] }

// Wtime reports the seconds elapsed since the world initialized: MPI_Wtime,
// the clock the exemplars' timing studies read.
func (c *Comm) Wtime() float64 {
	return time.Since(c.world.epoch).Seconds()
}

// worldRank maps a communicator-local rank to its world rank.
func (c *Comm) worldRank(local int) int { return c.ranks[local] }

// mailbox returns this rank's receive queue.
func (c *Comm) mailbox() *mailbox { return c.world.boxes[c.worldRank(c.rank)] }

// Compute runs fn under the world's compute gate, if one was installed by
// the launcher (see WithComputeGate). Exemplar kernels route their
// CPU-bound work through Compute so platform models can constrain how many
// ranks compute simultaneously. Without a gate, Compute just calls fn.
func (c *Comm) Compute(fn func()) {
	if g := c.world.gate; g != nil {
		g(fn)
		return
	}
	fn()
}

// checkRank validates a communicator-local rank.
func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= len(c.ranks) {
		return fmt.Errorf("%w: %d (communicator size %d)", ErrInvalidRank, r, len(c.ranks))
	}
	return nil
}

// sendValue routes v to a communicator-local rank under an arbitrary
// (possibly reserved) tag. On a typed world (local transport) whitelisted
// values travel in memory and never touch gob, and a wire world (TCP, shm)
// takes raw-encodable slices the same way; everything
// else is gob-encoded here, before the transport sees it. A slice is lent,
// not copied: whichever transport carries the frame has read its elements by
// the time Send returns (frame.borrowed), so the caller may overwrite v at
// once.
func (c *Comm) sendValue(dest, tag int, v any) error { return c.send(dest, tag, v, false) }

// send is sendValue, and with lend (an exchange step) a slice stays lent past it.
func (c *Comm) send(dest, tag int, v any, lend bool) error {
	if err := c.world.abortErr(); err != nil {
		return err
	}
	if err := c.checkRank(dest); err != nil {
		return err
	}
	if r := c.world.recov; r != nil {
		if err := r.sendErr(c, c.worldRank(dest)); err != nil {
			return err
		}
	}
	f := frame{
		Ctx:  c.ctx,
		Src:  c.rank,
		WSrc: c.worldRank(c.rank),
		Dst:  c.worldRank(dest),
		Tag:  tag,
	}
	if c.world.typed {
		f.borrowed, f.HasVal = typedValue(v)
		f.lent = lend && f.borrowed
	} else {
		_, f.HasVal = rawKindOf(v)
		f.borrowed = f.HasVal
	}
	if f.HasVal {
		f.Val = v
		return c.world.transport.Send(f)
	}
	data, err := encodeValue(v)
	if err != nil {
		return err
	}
	f.Data = data
	return c.world.transport.Send(f)
}

// waitFrame is the blocking core under every receive: it applies the
// world's deadline (if any) and, on expiry, converts the stall into the
// world's single deadline report via deadlineFired. Under WithRecovery it
// also installs the interruption check: a rank failure or revoke observed
// while blocked turns the wait into a retryable *RankFailedError — after a
// match miss, so frames already queued from a failed rank still deliver.
//
// at is nil for the whole wait. An exchange step and Irecv run a receive's
// halves apart: with *at nil it is posted (mailbox.post) and left in *at
// unless it is over already; with *at posted it is awaited.
func (c *Comm) waitFrame(op string, source, tag int, dst any, out *frame, at **waiter) (err error) {
	w, srcWorld := c.world, -1
	if source != AnySource {
		if err = c.checkRank(source); err != nil {
			return err
		}
		srcWorld = c.worldRank(source)
	}
	var check func() error
	if r := w.recov; r != nil {
		startFail := r.failVersion.Load()
		check = func() error { return r.opErr(c, srcWorld, startFail) }
	}
	onTimeout := func() error { return w.deadlineFired(c.worldRank(c.rank), op, c.ctx, source, tag) }
	switch m := c.mailbox(); {
	case at == nil:
		return m.wait(op, c.ctx, source, tag, w.deadline, onTimeout, check, dst, out)
	case *at == nil:
		*at, err = m.post(op, c.ctx, source, tag, w.deadline, dst, out)
		return err
	default:
		return m.await(*at, w.deadline, onTimeout, check, out)
	}
}

// recv takes the earliest message matching (source, tag) — which may use
// AnySource/AnyTag — materializes it into v (unless v is nil), and reports
// its Status.
func (c *Comm) recv(source, tag int, v any) (Status, error) {
	var f frame
	err := c.waitFrame("Recv", source, tag, v, &f, nil)
	return f.receivedInto(v, err)
}

// receivedInto ends a receive that took f, unless it failed with err: the
// payload goes into v, or back to its owner when v is nil.
func (f *frame) receivedInto(v any, err error) (Status, error) {
	if err != nil {
		return Status{}, err
	}
	if v == nil {
		f.release() // discarded payload: recycle a raw frame's pooled buffer
		return f.status(), nil
	}
	return f.status(), f.decodeInto(v)
}

// exchange is the runtime's one symmetric step, under Sendrecv and the copy
// steps of the collectives: post the receive naming v as its destination, send
// sendVal lent (frame.lent), await the receive, take the loan back. A partner
// in the same step finds either our receive posted, and copies its block
// straight into v, or our block in its queue, and copies it out at its own
// post — before the send that lets us go — so a pairwise exchange copies each
// block once, to where it is going. When the partner has not come by the time
// our receive is done (a ring, left ≠ right), recall makes the private copy
// Send would have made, later. Nothing of ours is still lent on any way out.
func (c *Comm) exchange(dest, sendTag int, sendVal any, source, recvTag int, v any) (Status, error) {
	if err := c.checkRank(dest); err != nil {
		return Status{}, err
	}
	var f frame
	var w *waiter
	err := c.waitFrame("Recv", source, recvTag, v, &f, &w)
	if err != nil {
		return Status{}, err
	}
	lend := c.world.typed // every mailbox is in this process, the destination's too
	if err = c.send(dest, sendTag, sendVal, lend); err == nil && w != nil {
		err = c.waitFrame("Recv", source, recvTag, v, &f, &w)
	} else if w != nil {
		c.mailbox().withdraw(w)
	} else if err != nil {
		f.release()
	}
	if lend {
		c.world.boxes[c.worldRank(dest)].recall(c.ctx, c.rank, sendTag)
	}
	return f.receivedInto(v, err)
}

// Send delivers v to rank dest under the given tag, blocking at most for
// local buffering (MPI buffered-mode semantics; there is no rendezvous).
// Tags must be non-negative, as in MPI. The value the receiver observes is
// always a private copy, taken before Send returns on every transport, so
// mutating v — or a slice it contains — after Send never races with the
// receiver.
func (c *Comm) Send(dest, tag int, v any) error {
	if tag < 0 {
		return fmt.Errorf("%w: user tags must be >= 0, got %d", ErrInvalidTag, tag)
	}
	return c.sendValue(dest, tag, v)
}

// Recv blocks until a message matching (source, tag) arrives and decodes it
// into the pointer v. source may be AnySource and tag may be AnyTag; the
// returned Status carries the actual source and tag. Pass v == nil to
// discard the payload. A slice *v with enough capacity is overwritten in
// place, so copy out what must survive the next Recv into v; after an error
// its contents are unspecified.
func (c *Comm) Recv(source, tag int, v any) (Status, error) {
	if tag < 0 && tag != AnyTag {
		return Status{}, fmt.Errorf("%w: receive tag %d", ErrInvalidTag, tag)
	}
	return c.recv(source, tag, v)
}

// Sendrecv performs a send and a receive concurrently, the deadlock-free
// exchange of MPI_Sendrecv. sendVal goes to dest under sendTag; the matching
// receive for (source, recvTag), posted before the send, is decoded into
// recvPtr.
func (c *Comm) Sendrecv(dest, sendTag int, sendVal any, source, recvTag int, recvPtr any) (Status, error) {
	if sendTag < 0 {
		return Status{}, fmt.Errorf("%w: user tags must be >= 0, got %d", ErrInvalidTag, sendTag)
	}
	if recvTag < 0 && recvTag != AnyTag {
		return Status{}, fmt.Errorf("%w: receive tag %d", ErrInvalidTag, recvTag)
	}
	return c.exchange(dest, sendTag, sendVal, source, recvTag, recvPtr)
}
