package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Who reads a rank's hub connection. Exactly one goroutine at a time holds
// the transport's read lease, and only the holder is inside recvFrame and
// dispatches what it reads: control frames to the world, pings back to the
// hub, everything else to the mailbox. The rule is that whoever waits for a
// message reads it. A receive about to sleep on a world whose data plane is
// the hub connection takes the lease (mailbox.readLocked) and reads until its
// own frame has come, so that frame is decoded on the goroutine that wants it
// (a streamed payload is read straight into the posted receive's slice:
// wireReader.land) and no goroutine is readied on the way; a reader that
// hands each frame over a channel costs an idle-P wake-up per message, which
// on two cores was most of an 8-byte round trip (EXPERIMENTS E15).
//
// The transport's own goroutine is the fallback reader, for the time no
// receive is blocked — the rank computes, sits in user code, or waits on
// something that is not the mailbox (an agreement decision, drain's done ack). It
// takes the lease once no receive has claimed it for leaseQuiet, keeps it
// while what it reads is control traffic or goes to the unexpected queue, and
// gives it up the moment it hands a frame to a blocked receive: that rank is
// receiving again and reads for itself from its next wait on. So eager sends
// to a busy rank still complete, pings are still answered and an abort still
// lands, within two intervals. A world with an shm data plane keeps the
// fallback as its only reader: its receives are fed by the ring poller and
// the hub connection carries control traffic.
//
// A reading receive parks only between frames (park), where every wake-up the
// mailbox has — a delivery by someone else, the deadline timer, fail, close,
// poke — reaches it through the connection's read deadline without tearing a
// frame or looking like a broken connection.
//
// Lock order: mailbox.mu, then tcpTransport.mu, then readLease.mu; nothing is
// called with readLease.mu held but the connection's SetReadDeadline.
type readLease struct {
	quiet time.Duration // leaseQuiet; a test stretches it to hold the fallback off

	mu      sync.Mutex
	held    bool
	down    bool     // no connection to read (redialing, or dead): receives sleep, the fallback waits it out
	urgent  bool     // the fallback skips its quiet interval once: drain and a redial need a reader now
	closed  bool     // the transport is dead: the fallback leaves
	waiting bool     // the fallback sleeps until a reading receive lets go
	claims  uint64   // times a receive took the lease: the fallback's measure of quiet
	parked  net.Conn // the connection a reading receive is blocked on, between frames
	poked   bool     // parked's read deadline was moved into the past to wake that receive
	nudge   chan struct{}

	// Data frames dispatched by a blocked receive and by the fallback; and
	// the same frames by where their payload was read: straight into the
	// receive's destination (wireReader.land), or into a pooled buffer.
	byRecv, byFallback, landed, buffered atomic.Int64
}

// leaseQuiet is how long the lease goes unclaimed before the fallback takes
// it. It is long against a round trip (tens of microseconds), so a rank that
// receives in a loop keeps the lease from one receive to the next however the
// scheduler treats it, and short against everything that waits on the
// fallback: a heartbeat interval, a suspicion window, a sender filling this
// rank's socket buffer, the done ack at tear-down (which does not wait at all:
// drain asks for the fallback at once).
const leaseQuiet = time.Millisecond

// errReadInterrupted ends a receive's turn as the reader with nothing read.
var errReadInterrupted = errors.New("mpi: read lease interrupted")

var longAgo = time.Unix(1, 0)

func (l *readLease) acquire() bool {
	l.mu.Lock()
	ok := !l.held && !l.down
	if ok {
		l.held = true
		l.claims++
	}
	l.mu.Unlock()
	return ok
}

func (l *readLease) idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.held && !l.down
}

func (l *readLease) release() {
	l.mu.Lock()
	l.held = false
	if l.waiting {
		l.waiting = false
		l.nudgeLocked()
	}
	l.mu.Unlock()
}

func (l *readLease) nudgeLocked() {
	select {
	case l.nudge <- struct{}{}:
	default:
	}
}

// interrupt wakes a receive parked between frames. One that is not parked
// finds the token in its wake-up slot before it parks or after the frame it
// is reading.
func (l *readLease) interrupt() {
	l.mu.Lock()
	if l.parked != nil && !l.poked {
		l.poked = true
		_ = l.parked.SetReadDeadline(longAgo) // a failure leaves the read to the next frame or the connection's end
	}
	l.mu.Unlock()
}

// park blocks a reading receive until the next frame's first byte is
// buffered, consuming nothing, and returns errReadInterrupted instead if a
// wake-up came first. The read deadline an interrupt moved is back in place
// before park returns, so no read inside a frame ever sees it.
func (l *readLease) park(conn net.Conn, br *bufio.Reader, wake <-chan struct{}) error {
	l.mu.Lock()
	if len(wake) > 0 {
		l.mu.Unlock()
		return errReadInterrupted
	}
	l.parked = conn
	l.mu.Unlock()
	_, err := br.Peek(1)
	l.mu.Lock()
	l.parked = nil
	if l.poked {
		l.poked = false
		_ = conn.SetReadDeadline(time.Time{}) // fails only on a closed connection, which the next read reports
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = errReadInterrupted
		}
	}
	l.mu.Unlock()
	return err
}

// connDown stops receives from reading a connection that is being redialed,
// or is gone for good. A redial wants the fallback at once — the hub
// retransmits the moment it resumes — and a dead transport wants it gone.
func (l *readLease) connDown(dead bool) {
	l.mu.Lock()
	l.down, l.urgent, l.closed = true, !dead, l.closed || dead
	l.nudgeLocked()
	l.mu.Unlock()
}

// connUp lets receives read the resumed connection.
func (l *readLease) connUp() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

// wantFallback calls for the fallback without its quiet interval.
func (l *readLease) wantFallback() {
	l.mu.Lock()
	l.urgent = true
	l.nudgeLocked()
	l.mu.Unlock()
}

// acquireFallback blocks until the fallback reader holds the lease — it has
// gone unclaimed for one quiet interval, or a reader is needed now — and
// reports false once the transport is dead. A rank receiving in a loop costs
// it one look an interval, not one a message; under one receive that has read
// for a whole interval it sleeps, with no timer running, until that receive
// lets go.
func (l *readLease) acquireFallback() bool {
	timer := time.NewTimer(l.quiet)
	defer timer.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		seen, quiet := l.claims, false
		if !l.urgent && !l.closed {
			l.mu.Unlock()
			if !timer.Stop() {
				select { // fired unread on an earlier turn
				case <-timer.C:
				default:
				}
			}
			timer.Reset(l.quiet)
			select {
			case <-timer.C:
				quiet = true
			case <-l.nudge:
			}
			l.mu.Lock()
		}
		switch {
		case l.closed:
			return false
		case !l.held && (l.urgent || quiet && l.claims == seen):
			l.held, l.urgent = true, false
			return true
		case l.held && (l.urgent || l.claims == seen):
			l.waiting = true
			l.mu.Unlock()
			<-l.nudge
			l.mu.Lock()
		}
	}
}

// The pump a TCP-only world's mailbox reads through.

func (t *tcpTransport) acquire() bool { return t.lease.acquire() }
func (t *tcpTransport) release()      { t.lease.release() }
func (t *tcpTransport) interrupt()    { t.lease.interrupt() }
func (t *tcpTransport) idle() bool    { return t.lease.idle() }

// read is a blocked receive's turn as the reader.
func (t *tcpTransport) read(wake <-chan struct{}) {
	for len(wake) == 0 {
		f, claimed, err := t.recvFrame(wake)
		if err == errReadInterrupted {
			return
		}
		if err != nil {
			t.lost(err)
			return
		}
		t.dispatch(f, claimed, &t.lease.byRecv)
	}
}

// serve binds the transport to the world it feeds and starts the fallback
// reader; Close waits for it. With receives reading (a TCP-only world) the
// mailbox reads through the lease.
func (t *tcpTransport) serve(w *World, box *mailbox, receivesRead bool) {
	t.world, t.box = w, box
	if receivesRead {
		box.pump = t
	} else {
		t.lease.urgent = true
	}
	t.fallback.Add(1)
	go func() {
		defer t.fallback.Done()
		for t.lease.acquireFallback() {
			for {
				f, claimed, err := t.recvFrame(nil)
				if err != nil {
					t.lost(err)
					return
				}
				if t.dispatch(f, claimed, &t.lease.byFallback) && receivesRead {
					break // that rank is receiving again: it reads for itself
				}
			}
			t.lease.release()
			box.passLease()
		}
		t.mu.Lock()
		err := t.deadErr
		t.mu.Unlock()
		t.lost(err)
	}()
}

// lost ends the world this transport fed: recvFrame rides out session resumes
// internally, so an error from it means the connection is gone for good. The
// abort poisons the mailbox, and nothing else may end it: the fallback and a
// reading receive both come here, and a close by the one that found the world
// already aborting could be seen before the other's poison.
func (t *tcpTransport) lost(err error) {
	t.world.abort(fmt.Errorf("mpi: rank %d: connection to hub lost: %w", t.rank, err))
}

// dispatch demultiplexes one frame read from the hub: a broadcast revoke
// poisons this rank's mailbox, recovery notices update the world, a heartbeat
// ping is answered on the spot — by the fallback when the rank is stuck in
// user code, which is the point: the heartbeat detects dead processes,
// WithDeadline detects stuck ranks — and routed traffic goes to the mailbox,
// counted in n. It reports whether a blocked receive took the frame.
func (t *tcpTransport) dispatch(f frame, claimed *waiter, n *atomic.Int64) bool {
	w := t.world
	switch f.Tag {
	case tagAbort:
		var info abortInfo
		if err := decodeValue(f.Data, &info); err != nil {
			info = abortInfo{Rank: -1, Msg: "world aborted (undecodable revoke)"}
		}
		w.abort(&remoteAbortError{rank: info.Rank, msg: info.Msg})
	case tagFailed:
		var info abortInfo
		if err := decodeValue(f.Data, &info); err == nil && w.recov != nil {
			w.rankFailed(info.Rank, info.Epoch, fmt.Errorf("%w: rank %d: %s", ErrRankFailed, info.Rank, info.Msg))
			if info.Gone {
				w.rankGone(info.Rank)
			}
		}
	case tagRejoin:
		var info rejoinInfo
		if err := decodeValue(f.Data, &info); err == nil && w.recov != nil {
			w.rankRejoined(info.Rank, info.Epoch)
		}
	case tagAgreeResp:
		var resp agreeResp
		if err := decodeValue(f.Data, &resp); err == nil && w.recov != nil {
			w.recov.deliverDecision(resp)
		}
	case tagRevoke:
		if w.recov != nil {
			w.revokeCtx(f.Ctx)
		}
	case tagPing:
		_ = t.Send(frame{Dst: ctrlDst, Tag: tagPong})
	default:
		if n.Add(1); claimed != nil {
			t.lease.landed.Add(1)
		} else {
			t.lease.buffered.Add(1)
		}
		return t.box.handOver(f, claimed)
	}
	return false
}
