package mpi

import (
	"slices"
	"sync"
	"time"
)

// mailbox is one rank's receive side, built on MPI's textbook pair of
// queues. The unexpected queue holds, in arrival order, the frames that found
// no receive waiting for them; the posted queue holds, in posting order, the
// receives and probes that found no frame waiting for them. A receive scans
// the unexpected queue for the earliest frame matching its (context, source,
// tag) — wildcards allowed — and posts itself only on a miss. An arriving
// frame scans the posted queue and is handed to the earliest receive it
// matches directly, with one wake-up aimed at that receive alone, and joins
// the unexpected queue only when no receive wants it yet. A slice borrowed
// from its sender (frame.borrowed) is copied on the way: into that receive's
// destination when it names a slice of the same type, else into a private
// copy — once either way, and with the lock released. Only a frame an exchange
// step lent (frame.lent) is queued uncopied: the receive that takes it, or the
// step's recall, copies it under the lock, which is how the lender knows.
//
// Ordering holds by construction: a receive is posted only after the
// unexpected queue had no match for it, and every later matching arrival is
// handed to it at once, so the earliest matching arrival always meets the
// earliest matching receive. Combined with order-preserving transports that
// is MPI's non-overtaking guarantee for any (sender, receiver, context) pair.
//
// A mailbox can end in two ways. close (transport shutdown) lets pending
// frames drain and then fails further waits with ErrShutdown. fail (world
// abort) poisons the mailbox outright: blocked and future operations return
// the abort error immediately, pending frames included — the revoke semantic
// that turns one rank's failure into a prompt error everywhere instead of a
// hang.
type mailbox struct {
	mu      sync.Mutex
	unexp   []frame   // unexpected queue: unexp[head:] is live, earliest arrival first
	head    int       // consumed prefix of unexp, reclaimed by deliver
	posted  []*waiter // blocked receives and probes, earliest posted first
	free    []*waiter // recycled waiters: as many as were ever blocked at once
	closed  bool
	failErr error // abort poison; checked before matching
	pump    pump  // the transport's read lease; nil unless a blocked receive may read for itself
}

// pump is a transport whose frames the operation waiting for them can read
// itself: whoever holds its read lease is the one goroutine that reads the
// transport and delivers what it reads, to this mailbox among others. An
// operation about to sleep takes the lease if it is free and spends the wait
// reading, so its frame is decoded on the goroutine that wants it and nobody
// is readied on the way. Lock order: the mailbox lock may be held when any
// method but read is called, and an implementation never takes it.
type pump interface {
	// acquire takes the lease if it is free and the transport can be read.
	acquire() bool
	// read reads and delivers frames until wake holds a token, interrupt
	// is called, or the transport can no longer be read by a receive. It is
	// called with the lease held and the mailbox lock released.
	read(wake <-chan struct{})
	// release gives the lease up.
	release()
	// interrupt makes a read in progress return at the next frame boundary;
	// without one it does nothing.
	interrupt()
	// idle reports that the lease is free and acquire would succeed.
	idle() bool
}

// unexpKeep is the largest unexpected-queue array (in frames of about 100
// bytes) a drained mailbox keeps; a burst that grew it further gives it back.
const unexpKeep = 256

// waiter is one posted receive (pop) or probe: what it matches, the slot
// deliver fills for a receive, and its one-slot wake-up. Every send on wake
// happens under the mailbox lock to a waiter that is posted or busy, neither
// of which its owner leaves in, so one drained under that lock is recycled
// empty. (The deadline timer is the one late sender: fired after its wait
// returned, its stray wake-up costs whoever holds the waiter then a re-check.)
type waiter struct {
	op       string
	ctx      int64
	src, tag int
	since    time.Time // when it blocked; zero outside deadline worlds, which keeps it out of snapshots
	pop      bool
	dst      any   // Recv's destination pointer, which a borrowed slice is copied into; nil otherwise
	busy     bool  // claimed by a deliver that is copying, or a reader that is reading, its payload with the lock released
	done     bool  // f was handed over by deliver
	away     bool  // posted ahead of its await (post): its owner is elsewhere, so a wake-up is not read until it comes
	f        frame // the one frame a receive waits for
	wake     chan struct{}
	timer    *time.Timer // the deadline's wake-up, armed when the receive was posted
	reader   pump        // the mailbox's pump while this waiter reads it, which a wake-up must interrupt
}

// signal fills the wake-up slot; already full means a re-check is coming. A
// waiter that is reading its transport is interrupted as well: the token is
// in place first, so a read that has not parked yet sees it and one that has
// is woken. Caller holds the mailbox lock.
func (w *waiter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
	if w.reader != nil {
		w.reader.interrupt()
	}
}

func newMailbox() *mailbox { return &mailbox{} }

// deliver hands an arriving frame to the earliest posted receive matching
// it, or queues it as unexpected. Probes posted ahead of that receive are
// woken to look again; a frame no receive takes stays queued for them.
//
// A borrowed payload is settled before deliver returns, with the lock
// released so that senders to one rank copy in parallel. The receive it was
// claimed for is off the posted queue and busy meanwhile — no other arrival
// can match it and its owner cannot leave — and a frame that found none
// looks again once it owns its payload, unless it is lent and may wait as it
// is. It reports whether a posted receive took the frame.
func (m *mailbox) deliver(f frame) bool { return m.handOver(f, nil) }

// handOver is deliver for a frame whose receive may have been claimed ahead
// of its payload (claim): w is then that receive, busy, its destination
// filled and f landed, and the hand-over is all that is left.
func (m *mailbox) handOver(f frame, w *waiter) bool {
	m.mu.Lock()
	if w == nil {
		w = m.claimLocked(&f)
	}
	if f.borrowed && (w != nil || !f.lent) {
		var dst any
		if w != nil {
			w.busy, dst = true, w.dst
		}
		m.mu.Unlock()
		f.settle(dst)
		m.mu.Lock()
		if w == nil {
			w = m.claimLocked(&f)
		}
	}
	if w != nil {
		w.f, w.done, w.busy = f, true, false
		w.signal()
		m.mu.Unlock()
		return true
	}
	// Reclaim the consumed prefix once it is half the array instead of
	// growing, so a mailbox in steady state stops allocating.
	if m.head > 0 && len(m.unexp) == cap(m.unexp) && m.head >= len(m.unexp)/2 {
		n := copy(m.unexp, m.unexp[m.head:])
		clear(m.unexp[n:])
		m.unexp, m.head = m.unexp[:n], 0
	}
	m.unexp = append(m.unexp, f)
	m.mu.Unlock()
	return false
}

// claim is the first half of a delivery, for a reader that holds f's header
// while its n payload bytes are still on the wire: the earliest posted receive
// f matches is claimed as deliver claims it, and when its destination is a
// slice of f's element kind it is returned busy, with that slice's storage,
// grown to n bytes, for the payload to be read into with the lock released.
// The reader then hands f over landed (handOver), or gives the receive back
// if the bytes never came or failed their check (unclaim). A receive that
// cannot take the bytes as they are keeps its place in the queue, and the
// frame arrives buffered.
func (m *mailbox) claim(f *frame, n int) (*waiter, []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.matchLocked(f)
	if i < 0 {
		return nil, nil
	}
	w := m.posted[i]
	into, ok := rawLanding(f.Raw, n, w.dst)
	if !ok || len(into) != n {
		return nil, nil
	}
	m.posted = slices.Delete(m.posted, i, i+1)
	w.busy = true
	return w, into
}

// unclaim gives back a claimed receive whose payload was lost: at the head of
// the posted queue, no longer busy, and woken to re-run its checks. What the
// failed read left in its destination is unspecified, as after any receive
// that returns an error.
func (m *mailbox) unclaim(w *waiter) {
	m.mu.Lock()
	w.busy = false
	m.posted = slices.Insert(m.posted, 0, w)
	w.signal()
	m.mu.Unlock()
}

// claimLocked takes the earliest posted receive matching f off the posted
// queue and returns it, or nil; matching probes ahead of it are woken. Caller
// holds m.mu.
func (m *mailbox) claimLocked(f *frame) *waiter {
	i := m.matchLocked(f)
	if i < 0 {
		return nil
	}
	w := m.posted[i]
	m.posted = slices.Delete(m.posted, i, i+1)
	return w
}

// matchLocked is the one matching loop: the place in the posted queue of the
// earliest receive matching f, or -1, with the matching probes ahead of it
// woken. Caller holds m.mu.
func (m *mailbox) matchLocked(f *frame) int {
	for i, w := range m.posted {
		if !f.matches(w.ctx, w.src, w.tag) {
			continue
		}
		if w.pop {
			return i
		}
		w.signal()
	}
	return -1
}

// matches reports whether f satisfies a receive for (ctx, src, tag),
// honouring AnySource and AnyTag.
func (f *frame) matches(ctx int64, src, tag int) bool {
	return f.Ctx == ctx && (src == AnySource || f.Src == src) && (tag == AnyTag || f.Tag == tag)
}

// findLocked returns the index in unexp of the earliest queued frame
// matching (ctx, src, tag), or -1. Caller holds m.mu.
func (m *mailbox) findLocked(ctx int64, src, tag int) int {
	for i := m.head; i < len(m.unexp); i++ {
		if m.unexp[i].matches(ctx, src, tag) {
			return i
		}
	}
	return -1
}

// removeLocked deletes unexp[i], closing the gap from the front: a match
// sits at or near the head unless stale frames are parked there, so that is
// the short side. Caller holds m.mu.
func (m *mailbox) removeLocked(i int) {
	copy(m.unexp[m.head+1:i+1], m.unexp[m.head:i])
	m.unexp[m.head] = frame{} // drop the payload reference
	if m.head++; m.head == len(m.unexp) {
		m.unexp, m.head = m.unexp[:0], 0
		if cap(m.unexp) > unexpKeep {
			m.unexp = nil
		}
	}
}

// wait blocks until a frame matching (ctx, src, tag) is available and
// stores it in out, taking it for receives (pop) and leaving it queued for
// probes (!pop). It is the single blocking primitive under Recv, Probe, and
// every collective: post and await under one hold of the lock. dst, if not
// nil, is the pointer the caller will decode into: once the receive is
// posted, deliver may copy a borrowed slice, and a transport's reader read a
// streamed payload (claim), straight into it and hand over the frame landed.
func (m *mailbox) wait(op string, ctx int64, src, tag int, timeout time.Duration, onTimeout func() error, check func() error, pop bool, dst any, out *frame) error {
	m.mu.Lock()
	w, err := m.postLocked(op, ctx, src, tag, timeout, pop, dst, out)
	if w != nil {
		err = m.awaitLocked(w, timeout, onTimeout, check, out)
	}
	m.mu.Unlock()
	return err
}

// post is wait's first half, for a receive whose owner has something to do
// before it blocks (an exchange step's send, Irecv's return). No waiter means
// the receive is over: it failed, or out holds the frame. A posted one has its
// place in the matching order and goes to await, or to withdraw; until then it
// shows in deadline snapshots, its budget running, but is passed no read
// lease: nobody is there to read.
func (m *mailbox) post(op string, ctx int64, src, tag int, timeout time.Duration, dst any, out *frame) (*waiter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, err := m.postLocked(op, ctx, src, tag, timeout, true, dst, out)
	if w != nil {
		w.away = true
	}
	return w, err
}

// await is wait's second half, for a receive that post posted.
func (m *mailbox) await(w *waiter, timeout time.Duration, onTimeout func() error, check func() error, out *frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.awaitLocked(w, timeout, onTimeout, check, out)
}

// withdraw retires a posted receive nobody will await, once no delivery is
// writing into its destination.
func (m *mailbox) withdraw(w *waiter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w.busy {
		m.sleepLocked(w)
	}
	m.retireLocked(w)
}

// postLocked fails on a poisoned mailbox, else takes the earliest matching
// unexpected frame, else joins the posted queue: nothing is posted, timed or
// stamped before that miss. With timeout > 0 the waiter shows in snapshots
// and is woken when the budget is spent. Caller holds m.mu.
func (m *mailbox) postLocked(op string, ctx int64, src, tag int, timeout time.Duration, pop bool, dst any, out *frame) (*waiter, error) {
	if m.failErr != nil {
		return nil, m.failErr
	}
	if i := m.findLocked(ctx, src, tag); i >= 0 {
		m.takeLocked(i, pop, dst, out)
		return nil, nil
	}
	var w *waiter
	if n := len(m.free); n > 0 {
		w, m.free = m.free[n-1], m.free[:n-1]
	} else {
		w = &waiter{wake: make(chan struct{}, 1)}
	}
	w.op, w.ctx, w.src, w.tag, w.pop, w.dst = op, ctx, src, tag, pop, dst
	m.posted = append(m.posted, w)
	if timeout > 0 {
		w.since = time.Now()
		posted := w // captured by value: w itself stays off the heap for waits without a deadline
		w.timer = time.AfterFunc(timeout, func() {
			m.mu.Lock()
			posted.signal()
			m.mu.Unlock()
		})
	}
	return w, nil
}

// takeLocked stores the unexpected frame unexp[i] in out, removing it for a
// receive. A frame still lent is settled here, under the lock its lender takes
// to have its slice back (recall): into dst, or in place for a probe. Caller
// holds m.mu.
func (m *mailbox) takeLocked(i int, pop bool, dst any, out *frame) {
	if !pop {
		dst = nil
	}
	m.unexp[i].settle(dst)
	if *out = m.unexp[i]; pop {
		m.removeLocked(i)
	}
}

// awaitLocked blocks until the posted w has its frame, and retires it. The
// checks run in revoke order: a poisoned mailbox fails immediately (even with
// a matching frame queued or already handed over — the world is revoked, and
// a handed-over frame's payload is released); a match wins over a close, so
// pending frames drain after transport shutdown; the recovery check (if any)
// runs only after a match miss, so frames already queued from a rank that
// later failed still deliver; and only then does a timeout fire: onTimeout is
// invoked with the waiter still posted and m.mu released — it may inspect
// other mailboxes and poison this one — and its error is returned verbatim.
// check is called with m.mu held and must not block. Caller holds m.mu.
func (m *mailbox) awaitLocked(w *waiter, timeout time.Duration, onTimeout func() error, check func() error, out *frame) (err error) {
	if w.away = false; w.busy {
		m.sleepLocked(w)
	}
	for {
		if err = m.failErr; err != nil {
			break
		}
		if w.done {
			*out, w.done = w.f, false
			break
		}
		if i := m.findLocked(w.ctx, w.src, w.tag); i >= 0 {
			m.takeLocked(i, w.pop, w.dst, out)
			break
		}
		if check != nil {
			if err = check(); err != nil {
				break
			}
		}
		if m.closed {
			err = ErrShutdown
			break
		}
		if timeout > 0 && !time.Now().Before(w.since.Add(timeout)) {
			m.mu.Unlock()
			err = onTimeout()
			m.mu.Lock()
			if w.busy {
				m.sleepLocked(w)
			}
			break
		}
		if m.pump == nil || !m.readLocked(w) {
			m.sleepLocked(w)
		}
	}
	m.retireLocked(w)
	return err
}

// retireLocked unposts and recycles w. Caller holds m.mu.
func (m *mailbox) retireLocked(w *waiter) {
	if w.done { // handed over, then revoked or timed out: nobody else can free it
		w.f.release()
	}
	if i := slices.Index(m.posted, w); i >= 0 {
		m.posted = slices.Delete(m.posted, i, i+1)
	}
	select { // drain a wake-up that raced the exit
	case <-w.wake:
	default:
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.f, w.dst, w.done, w.since, w.timer = frame{}, nil, false, time.Time{}, nil
	m.free = append(m.free, w)
	if m.pump != nil {
		m.passLeaseLocked()
	}
}

// recall turns rank src's frames still queued lent under (ctx, tag) into the
// private copies Send would have made. An exchange step calls it on every way
// out, and by having held the lock has its slice back: whoever took a lent
// frame copied it out under the same lock.
func (m *mailbox) recall(ctx int64, src, tag int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := m.head; i < len(m.unexp); i++ {
		if f := &m.unexp[i]; f.matches(ctx, src, tag) {
			f.settle(nil)
		}
	}
}

// readLocked spends w's wait reading: if the pump's lease is free, w becomes
// the reader and delivers what arrives — its own frame among it — instead of
// sleeping until another goroutine has. It reports false if w has to sleep
// after all: the lease is taken, or a delivery that claimed w is still
// copying. Caller holds m.mu, which is released while w reads.
func (m *mailbox) readLocked(w *waiter) bool {
	if !m.pump.acquire() {
		return false
	}
	w.reader = m.pump
	m.mu.Unlock()
	m.pump.read(w.wake)
	m.mu.Lock()
	w.reader = nil
	m.pump.release()
	select { // the wake-up that ended the read, if one did
	case <-w.wake:
	default:
	}
	return !w.busy
}

// passLeaseLocked keeps a mailbox with operations posted from being left
// without a reader: whoever lets go of the lease, or leaves while it is free,
// wakes the earliest posted operation somebody sleeps in, which takes it on
// its way back to sleep. Caller holds m.mu, and m.pump is not nil.
func (m *mailbox) passLeaseLocked() {
	for _, w := range m.posted {
		if !w.away {
			if m.pump.idle() {
				w.signal()
			}
			return
		}
	}
}

// passLease is passLeaseLocked for a reader that is not an operation of this
// mailbox: the transport's fallback, after it released the lease.
func (m *mailbox) passLease() {
	m.mu.Lock()
	m.passLeaseLocked()
	m.mu.Unlock()
}

// sleepLocked releases m.mu until w is woken, and again while whoever
// claimed w is still writing into its destination: the receive may neither
// time out nor return an error under a copy or a read in progress (a read is
// bounded by the connection's failure detection). Caller holds m.mu.
func (m *mailbox) sleepLocked(w *waiter) {
	for {
		m.mu.Unlock()
		<-w.wake
		m.mu.Lock()
		if !w.busy {
			return
		}
	}
}

// appendBlocked appends rank's operations stuck under a deadline to out.
// Waits without one (the window service's idle loop) are posted too, but are
// not stuck.
func (m *mailbox) appendBlocked(out []BlockedOp, rank int) []BlockedOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.posted {
		if !w.since.IsZero() {
			out = append(out, BlockedOp{Rank: rank, Op: w.op, Ctx: w.ctx, Src: w.src, Tag: w.tag,
				Waited: time.Since(w.since).Round(time.Millisecond)})
		}
	}
	return out
}

// peek reports whether a frame matching (ctx, src, tag) is queued, and if so
// returns its status, without removing it: the core of Iprobe. A poisoned
// mailbox reports nothing available, matching the failing Recv it precedes.
func (m *mailbox) peek(ctx int64, src, tag int) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return Status{}, false
	}
	if i := m.findLocked(ctx, src, tag); i >= 0 {
		return m.unexp[i].status(), true
	}
	return Status{}, false
}

// wakeAllLocked makes every posted waiter re-run its checks. m.mu is held.
func (m *mailbox) wakeAllLocked() {
	for _, w := range m.posted {
		w.signal()
	}
}

// poke wakes every blocked waiter so it re-runs its checks — how a rank
// failure observed under recovery interrupts pending operations without
// poisoning the mailbox.
func (m *mailbox) poke() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wakeAllLocked()
}

// close marks the mailbox closed and wakes all blocked receivers. Pending
// frames stay receivable; only waits that would block fail, with
// ErrShutdown.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.wakeAllLocked()
}

// fail poisons the mailbox with the world's abort error: every blocked and
// future operation returns err immediately, pending frames included. The
// first error sticks.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr == nil {
		m.failErr = err
	}
	m.wakeAllLocked()
}
