package mpi

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport gives each rank its own connection to a routing hub, so
// ranks may live in different OS processes (or different machines sharing a
// network), the way an MPI job runs across a Beowulf cluster. The hub plays
// the role of the interconnect: it preserves per-connection FIFO order, so
// the non-overtaking guarantee carries over from the in-process transport.
//
// Wire protocol, per connection. The stream opens with a gob hello naming the
// rank and the wire version, which the hub checks; from there on both
// directions carry the one frame format of wire.go, which makes the
// connection a resumable *session* (session.go): every frame carries a
// sequence number, raw frames carry a CRC32C, receivers ack cumulatively, and
// senders keep unacknowledged frames in a bounded replay buffer. Message
// sequence:
//
//	hello{Rank, Wire}      worker -> hub, once, identifies the rank
//	frame{Tag: tagStart}   hub -> worker, once, after all ranks joined;
//	                       Data carries a gob startInfo (suspicion grace,
//	                       membership epoch, failed mask)
//	frame{...}             either direction, user and collective traffic
//	frame{Dst: ctrlDst, Tag: tagDone}   worker -> hub, rank finished
//	frame{Dst: ctrlDst, Tag: tagAbort}  worker -> hub, rank failed; Data
//	                                    carries a gob abortInfo
//	frame{Tag: tagAbort}   hub -> worker, world revoked (broadcast)
//	frame{Tag: tagPing}    hub -> worker, heartbeat probe
//	frame{Dst: ctrlDst, Tag: tagPong}   worker -> hub, heartbeat reply
//
// Recovery worlds (HubRecovery + WithRecovery) add:
//
//	frame{Dst: ctrlDst, Tag: tagFailed}     worker -> hub, this rank failed
//	                                        recoverably; Data: gob abortInfo
//	frame{Tag: tagFailed}                   hub -> worker, a peer failed
//	                                        (broadcast); Data: gob abortInfo
//	frame{Dst: ctrlDst, Tag: tagAgreeReq}   worker -> hub, agreement
//	                                        contribution; Data: gob agreeReq
//	frame{Tag: tagAgreeResp}                hub -> worker, agreement decision;
//	                                        Data: gob agreeResp
//	frame{Dst: ctrlDst, Tag: tagRevoke, Ctx: c} worker -> hub, context c revoked
//	frame{Tag: tagRevoke, Ctx: c}           hub -> worker, revoke broadcast
//
// Resilient sessions (HubSuspicion) change what a broken connection means.
// When a worker's connection breaks — on either side — the hub marks the
// rank *suspected* (not failed), parks its frames in the replay buffer, and
// arms a grace timer; the worker redials with hello{Resume: true, Ack}
// carrying the highest sequence it received. The hub replies with a 9-byte
// raw status (accepted flag + its own receive sequence) and both sides
// retransmit their unacknowledged tails. Only grace-window expiry (or a
// replay gap that makes the resume impossible) promotes suspected to failed.
//
// Respawn recovery (WithRespawn / mpirun -respawn) adds one more tag:
//
//	hello{Rank, Wire, Respawn: true}   a relaunched process re-admits into
//	                                   its old (failed) slot
//	frame{Tag: tagRejoin}              hub -> survivors; Data: gob rejoinInfo
//	                                   (the rank and the new membership epoch)
//
// Re-admission bumps the hub's membership epoch; survivors and the newcomer
// re-form at the original width through Comm.Restored.
const (
	tagStart     = -100
	tagDone      = -101
	tagAbort     = -102
	tagPing      = -103
	tagPong      = -104
	tagFailed    = -105
	tagAgreeReq  = -106
	tagAgreeResp = -107
	tagRevoke    = -108
	tagRejoin    = -109
	ctrlDst      = -100
)

type hello struct {
	Rank int
	// Wire names the frame format the worker speaks (wire.go): wireVersion2,
	// or the hub refuses the connection. Every worker is launched from the
	// launcher's own binary, so another value is a program from another tree.
	Wire int
	// Resume marks a session-resume dial: the worker's original connection
	// broke and it is redialing within the grace window. Ack carries the
	// highest sequence number the worker received before the break.
	Resume bool
	Ack    uint64
	// Respawn marks a relaunched process re-admitting into its old slot
	// after its previous incarnation failed (respawn recovery).
	Respawn bool
}

// startInfo rides in the start frame's Data: the session grace window the
// hub was configured with, and — for respawned workers — the membership
// epoch and the hub's view of the still-failed ranks at admission time.
type startInfo struct {
	SuspicionNs int64
	Epoch       int
	FailedMask  uint64
}

// rejoinInfo rides in a tagRejoin broadcast: which rank was respawned into
// its old slot, and the membership epoch its re-admission established.
type rejoinInfo struct {
	Rank  int
	Epoch int
}

// abortInfo is the wire form of a world revoke: which rank failed (or -1
// when the hub itself did) and its error, surviving only as text.
type abortInfo struct {
	Rank int
	Msg  string
}

func (ai abortInfo) err() error {
	return &abortError{cause: &remoteAbortError{rank: ai.Rank, msg: ai.Msg}}
}

// HubOption configures a StartHub.
type HubOption func(*hubOptions)

type hubOptions struct {
	formation time.Duration
	heartbeat time.Duration
	suspicion time.Duration
	recovery  bool

	// Test seams around the start broadcast, nil outside tests. startWritten
	// runs after each start frame is written (routing: that worker's route
	// loop is already running, which the last joiner's is not); startHeld
	// runs when a route loop is about to hold a frame for the broadcast.
	startWritten func(h *Hub, routing bool)
	startHeld    func()
}

// HubFormationTimeout bounds how long the hub waits for the world to form.
// If the deadline passes before every rank has joined, the job fails with
// an error wrapping ErrFormationTimeout that lists the missing ranks —
// instead of waiting forever on a worker that never dialed. Zero (the
// default) waits indefinitely.
func HubFormationTimeout(d time.Duration) HubOption {
	return func(o *hubOptions) { o.formation = d }
}

// HubHeartbeat makes the hub ping every worker each interval once the
// world has started. A worker that misses three consecutive intervals —
// a frozen process, a dead VM, a stalled connection — fails the job and
// revokes the world for the survivors. It cannot detect a rank that is
// alive but stuck in user code (its connection still answers); that is
// what WithDeadline is for. Zero (the default) disables the heartbeat.
func HubHeartbeat(interval time.Duration) HubOption {
	return func(o *hubOptions) { o.heartbeat = interval }
}

// HubSuspicion arms resilient sessions: a worker whose connection breaks
// after the world has started is *suspected* for up to d — its unsent
// frames park in the replay buffer while the worker redials and resumes
// from the last acknowledged sequence — and only if the grace window
// expires without a successful resume is the rank promoted to failed
// (recovery hubs) or the world revoked (plain hubs). Zero (the default)
// disables suspicion: any break is instantly fatal.
func HubSuspicion(d time.Duration) HubOption {
	return func(o *hubOptions) { o.suspicion = d }
}

// HubRecovery opts the hub into survive-and-continue worlds: a worker that
// reports a recoverable failure (or whose connection drops after the world
// started) is recorded as failed and announced to the survivors instead of
// revoking the world, and the hub coordinates the survivors' Agree calls.
// Pair it with WithRecovery on the workers; RunTCP adds it automatically.
func HubRecovery() HubOption {
	return func(o *hubOptions) { o.recovery = true }
}

// WithHubOptions forwards hub configuration (formation timeout, heartbeat,
// suspicion) to the hub RunTCP starts internally. Standalone hubs take the
// same options directly via StartHub; JoinTCP ignores this option.
func WithHubOptions(opts ...HubOption) Option {
	return func(c *config) { c.hubOpts = append(c.hubOpts, opts...) }
}

// WithDialRetry bounds JoinTCP's dial retry budget: failed dials are
// retried with exponential backoff and jitter until the budget elapses, so
// a worker that starts before its hub is listening joins as soon as the hub
// comes up. Zero keeps the default (3s); a negative budget disables
// retrying entirely.
func WithDialRetry(budget time.Duration) Option {
	return func(c *config) { c.dialRetry = budget }
}

// WithTCPNoDelay sets TCP_NODELAY on the worker's hub connection. Go enables
// it by default (segments leave immediately, the right call for the
// latency-sensitive framing this transport uses); passing false re-enables
// Nagle's algorithm, trading per-message latency for fewer small segments —
// the classic knob a bandwidth-bound many-small-messages workload can try.
// The option is a no-op on non-TCP transports and non-TCP connections.
func WithTCPNoDelay(enabled bool) Option {
	return func(c *config) {
		b := enabled
		c.noDelay = &b
	}
}

// errHubConnDead marks a send into a hub connection that has been retired
// (the worker reported done, its suspicion expired, or it was replaced by a
// respawn). The router drops such frames instead of failing the world: the
// rank's fate has already been decided through the failure machinery.
var errHubConnDead = errors.New("mpi: hub connection retired")

// Hub routes frames between the ranks of one TCP-transport world. Create
// one with StartHub, hand its Addr to the workers, and Wait for the job to
// finish.
type Hub struct {
	ln   net.Listener
	np   int
	opts hubOptions

	// started flips once the start signal has been broadcast: suspicion
	// (session resume) only applies to post-formation breaks.
	started atomic.Bool
	// startDone is closed once every worker has been sent its start signal;
	// route loops hold their first frame until then.
	startDone chan struct{}

	mu       sync.Mutex
	conns    map[int]*hubConn
	complete bool // all np ranks admitted
	done     int
	epoch    int // membership epoch; bumped by each respawn re-admission
	err      error
	abortErr error // first rank-reported abort; preferred by Wait
	lastPong map[int]time.Time

	// Recovery bookkeeping (HubRecovery): which ranks failed recoverably,
	// and the open agreement instances the hub is coordinating.
	failedRanks map[int]bool
	agreements  map[agreeKey]*hubAgree

	formTimer  *time.Timer
	finished   chan struct{}
	finishOnce sync.Once
}

// hubAgree is one open hub-coordinated agreement instance.
type hubAgree struct {
	members []int
	masks   map[int]uint64 // contributing world rank -> mask
}

// hubConn is the hub's half of one worker's session: the connection, the
// framing layers, and the send/receive session state. mu guards
// everything except doneCounted, which h.mu guards (the done count and the
// per-conn flag must change atomically together). Lock order: h.mu may be
// taken before hc.mu, never the reverse.
type hubConn struct {
	h    *Hub
	rank int

	// resumeMu serializes resume attempts for this rank: two racing redials
	// must not both swap the connection.
	resumeMu sync.Mutex

	mu        sync.Mutex
	conn      net.Conn
	w         *wireWriter
	rd        *wireReader
	sendq     sendSession
	recvq     recvSession
	suspended bool // connection down, grace timer running, frames parking
	dead      bool // retired for good: done, failed, or replaced
	suspTimer *time.Timer
	// readerDown is closed when the route loop reading this connection
	// returns; a resume waits on it before reusing the wireReader.
	readerDown chan struct{}

	doneCounted bool // guarded by h.mu, not hc.mu
}

func (hc *hubConn) send(f frame) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.sendLocked(f)
}

// sendLocked puts one outbound frame on the session: sequenced and captured
// for replay, or parked while the connection is down (wireWriter.transmit);
// a write error under suspicion-eligible conditions suspends the connection
// (the frame is already safe in the replay buffer) instead of surfacing the
// error.
func (hc *hubConn) sendLocked(f frame) error {
	if hc.dead {
		return errHubConnDead
	}
	werr, err := hc.w.transmit(f, hc.suspended)
	if werr != nil {
		return hc.streamBrokenLocked(werr)
	}
	return err
}

// canSuspendLocked reports whether this connection's breaks are absorbed by
// the suspicion machinery rather than being immediately fatal.
func (hc *hubConn) canSuspendLocked() bool {
	return hc.h.opts.suspicion > 0 && hc.h.started.Load()
}

// streamBrokenLocked handles a write error: suspend if the session can
// resume, otherwise surface the error to the caller.
func (hc *hubConn) streamBrokenLocked(err error) error {
	if hc.canSuspendLocked() {
		hc.suspendLocked()
		return nil
	}
	return err
}

// suspendLocked marks the connection suspected: the socket is closed (so
// both the local reader and the remote peer observe the break promptly) and
// the grace timer is armed. Idempotent; the timer is armed exactly once per
// suspicion episode, so a failed resume attempt cannot extend the window.
func (hc *hubConn) suspendLocked() {
	if hc.suspended || hc.dead {
		return
	}
	hc.suspended = true
	if hc.conn != nil {
		hc.conn.Close()
	}
	if hc.suspTimer != nil {
		hc.suspTimer.Stop()
	}
	hc.suspTimer = time.AfterFunc(hc.h.opts.suspicion, func() { hc.h.suspicionExpired(hc) })
}

// retireLocked marks the connection dead for good and releases its replay
// buffer. Caller holds hc.mu.
func (hc *hubConn) retireLocked() {
	hc.dead = true
	if hc.suspTimer != nil {
		hc.suspTimer.Stop()
	}
	hc.sendq.drop()
}

// StartHub listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// routes for a world of np ranks. It returns as soon as the listener is
// ready; workers may join immediately.
func StartHub(addr string, np int, opts ...HubOption) (*Hub, error) {
	if np < 1 {
		return nil, fmt.Errorf("mpi: hub needs at least 1 process, got %d", np)
	}
	var ho hubOptions
	for _, o := range opts {
		o(&ho)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: hub listen: %w", err)
	}
	h := &Hub{
		ln:          ln,
		np:          np,
		opts:        ho,
		conns:       make(map[int]*hubConn),
		failedRanks: make(map[int]bool),
		agreements:  make(map[agreeKey]*hubAgree),
		finished:    make(chan struct{}),
		startDone:   make(chan struct{}),
	}
	if ho.formation > 0 {
		// Assign under the lock: the timer callback (and the shutdown path
		// it triggers) reads formTimer from other goroutines.
		h.mu.Lock()
		h.formTimer = time.AfterFunc(ho.formation, h.formationExpired)
		h.mu.Unlock()
	}
	go h.acceptLoop()
	return h, nil
}

// Addr reports the address workers should dial.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// acceptLoop admits connections for the hub's whole life: after formation,
// new dials are session resumes and respawn re-admissions.
func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			select {
			case <-h.finished:
			default:
				h.fail(fmt.Errorf("mpi: hub accept: %w", err))
			}
			return
		}
		go h.admit(conn)
	}
}

// formationExpired fires when the world-formation timeout elapses: any
// still-missing rank fails the job with a list of who never joined.
func (h *Hub) formationExpired() {
	h.mu.Lock()
	if h.complete {
		h.mu.Unlock()
		return
	}
	var missing []int
	for r := 0; r < h.np; r++ {
		if _, ok := h.conns[r]; !ok {
			missing = append(missing, r)
		}
	}
	d := h.opts.formation
	h.mu.Unlock()
	h.fail(fmt.Errorf("%w: %d of %d ranks missing after %s: %v",
		ErrFormationTimeout, len(missing), h.np, d, missing))
}

// admit performs one inbound connection's handshake and dispatches it:
// a session resume, a respawn re-admission, or a first-time registration.
func (h *Hub) admit(conn net.Conn) {
	rd := newWireReader(conn)
	hi, err := rd.readHello()
	if err != nil {
		h.refuse(conn, fmt.Errorf("mpi: hub handshake: %w", err))
		return
	}
	if hi.Rank < 0 || hi.Rank >= h.np {
		h.fail(fmt.Errorf("mpi: hub: worker announced invalid rank %d", hi.Rank))
		conn.Close()
		return
	}
	if hi.Wire != wireVersion2 {
		h.refuse(conn, fmt.Errorf("mpi: hub: rank %d announced wire version %d, this hub speaks version %d only",
			hi.Rank, hi.Wire, wireVersion2))
		return
	}
	if hi.Resume {
		h.resumeWorker(conn, hi)
		return
	}
	if hi.Respawn {
		h.respawnWorker(conn, hi, rd)
		return
	}

	// First-time registration.
	hc := h.newHubConn(hi.Rank, conn, rd)
	h.mu.Lock()
	if _, dup := h.conns[hi.Rank]; dup {
		h.mu.Unlock()
		h.fail(fmt.Errorf("mpi: hub: duplicate worker for rank %d", hi.Rank))
		conn.Close()
		return
	}
	h.conns[hi.Rank] = hc
	complete := len(h.conns) == h.np
	epoch := h.epoch
	var all []*hubConn
	if complete {
		h.complete = true
		if h.formTimer != nil {
			h.formTimer.Stop()
		}
		for _, c := range h.conns {
			all = append(all, c)
		}
		if h.opts.heartbeat > 0 {
			h.lastPong = make(map[int]time.Time, h.np)
			now := time.Now()
			for r := range h.conns {
				h.lastPong[r] = now
			}
		}
	}
	h.mu.Unlock()

	if complete {
		data, encErr := encodeValue(startInfo{SuspicionNs: int64(h.opts.suspicion), Epoch: epoch})
		if encErr != nil {
			h.fail(fmt.Errorf("mpi: hub start signal: %w", encErr))
			return
		}
		for _, c := range all {
			if err := c.send(frame{Tag: tagStart, Data: data}); err != nil {
				h.fail(fmt.Errorf("mpi: hub start signal: %w", err))
				return
			}
			if h.opts.startWritten != nil {
				h.opts.startWritten(h, c != hc)
			}
		}
		close(h.startDone)
		h.started.Store(true)
		if h.opts.heartbeat > 0 {
			go h.heartbeatLoop()
		}
	}
	h.route(hc, conn, hc.readerDown)
}

// refuse turns away a connection whose hello cannot be honoured. While the
// world is forming that fails the job; a stray dial into a formed world (a
// port scanner, a confused client, a program from another tree) must not
// take a healthy job down, and is closed and ignored.
func (h *Hub) refuse(conn net.Conn, err error) {
	h.mu.Lock()
	complete := h.complete
	h.mu.Unlock()
	if !complete {
		h.fail(err)
	}
	conn.Close()
}

// newHubConn builds the hub's half of a rank's session on conn, whose hello
// rd has consumed: a fresh writer and send session, acks trimming it.
func (h *Hub) newHubConn(rank int, conn net.Conn, rd *wireReader) *hubConn {
	hc := &hubConn{h: h, rank: rank, conn: conn, w: newWireWriter(conn), rd: rd, readerDown: make(chan struct{})}
	hc.w.sess = &hc.sendq
	rd.onAck = func(ack uint64) {
		hc.mu.Lock()
		hc.sendq.trim(ack)
		hc.mu.Unlock()
	}
	return hc
}

// resumeWorker handles a session-resume dial: validate, park the old reader,
// exchange acknowledged sequences, swap the connection in, and retransmit
// the unacknowledged tail. The reply to the worker is 9 raw bytes — a status
// byte (1 = accepted) and the hub's highest received sequence — written
// outside the framed session, mirroring the worker's fresh-encoder hello.
func (h *Hub) resumeWorker(conn net.Conn, hi hello) {
	refuse := func() {
		var reply [1 + seqLen]byte
		_, _ = conn.Write(reply[:]) // status 0: refused
		conn.Close()
	}
	h.mu.Lock()
	hc := h.conns[hi.Rank]
	h.mu.Unlock()
	if hc == nil || h.opts.suspicion <= 0 {
		refuse()
		return
	}
	hc.resumeMu.Lock()
	defer hc.resumeMu.Unlock()

	hc.mu.Lock()
	if hc.dead {
		hc.mu.Unlock()
		refuse()
		return
	}
	if !hc.suspended && hc.conn != nil {
		// The worker noticed the break before the hub did. The old socket
		// may still hold streamed frames the kernel accepted before the
		// break — frames too large for the worker's replay buffer, which
		// can never be retransmitted. Closing the socket now would discard
		// them and doom the resume, so instead give the old route a
		// bounded window to drain what is already buffered: it reads until
		// EOF (the worker closed its end) or the deadline fires, and its
		// exit path suspends the session. The grace timer armed there is
		// stopped as soon as the resume below completes.
		_ = hc.conn.SetReadDeadline(time.Now().Add(resumeDrainWindow))
	}
	down := hc.readerDown
	hc.mu.Unlock()
	<-down // the old route loop has returned; hc.rd is ours to reset

	hc.mu.Lock()
	if hc.dead {
		hc.mu.Unlock()
		refuse()
		return
	}
	entries, ok := hc.sendq.pending(hi.Ack)
	if !ok {
		// The worker is missing a frame that was never captured (a streamed
		// large frame or an evicted one): the session is honestly lost.
		hc.retireLocked()
		hc.mu.Unlock()
		refuse()
		h.sessionLost(hc)
		return
	}
	var reply [1 + seqLen]byte
	reply[0] = 1
	le.PutUint64(reply[1:], hc.recvq.seqIn)
	if _, err := conn.Write(reply[:]); err != nil {
		hc.mu.Unlock()
		conn.Close()
		return // still suspended; the worker (or the timer) decides next
	}
	hc.conn = conn
	hc.w.resetConn(conn)
	hc.rd.resetConn(conn)
	hc.recvq.sinceAck = 0
	hc.readerDown = make(chan struct{})
	// Start the reader before retransmitting: the worker is retransmitting
	// its own tail concurrently, and draining it keeps the kernel buffers
	// from filling while ours flow the other way.
	go h.route(hc, conn, hc.readerDown)
	var werr error
	for _, e := range entries {
		if werr = hc.w.writeEncoded(e.buf); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = hc.w.flush()
	}
	if werr != nil {
		// The fresh connection broke during retransmission. Stay suspended:
		// the original grace timer still stands, so a dead worker is still
		// promoted to failed on schedule while a live one retries.
		conn.Close()
		hc.mu.Unlock()
		return
	}
	hc.suspended = false
	if hc.suspTimer != nil {
		hc.suspTimer.Stop()
	}
	hc.mu.Unlock()

	h.mu.Lock()
	if h.lastPong != nil {
		h.lastPong[hi.Rank] = time.Now()
	}
	h.mu.Unlock()
}

// respawnWorker re-admits a relaunched process into its old slot: the dead
// incarnation's connection is retired, the rank's failure is cleared, the
// membership epoch is bumped, survivors learn of the rejoin, and the
// newcomer gets a start signal carrying the epoch and the remaining failed
// set.
func (h *Hub) respawnWorker(conn net.Conn, hi hello, rd *wireReader) {
	select {
	case <-h.finished:
		conn.Close()
		return
	default:
	}
	h.mu.Lock()
	ready := h.opts.recovery && h.complete
	old := h.conns[hi.Rank]
	h.mu.Unlock()
	if !ready {
		h.fail(fmt.Errorf("mpi: hub: rank %d attempted respawn before the world formed (or without HubRecovery)", hi.Rank))
		conn.Close()
		return
	}
	if old != nil {
		old.mu.Lock()
		old.retireLocked()
		if old.conn != nil {
			old.conn.Close()
		}
		old.mu.Unlock()
	}
	// Record the failure if nothing else has yet: a kill-and-relaunch can
	// land the new dial before the old connection's death is observed, and
	// the survivors must see fail-then-rejoin in that order.
	h.mu.Lock()
	already := h.failedRanks[hi.Rank]
	h.mu.Unlock()
	if !already {
		if data, err := encodeValue(abortInfo{Rank: hi.Rank, Msg: "rank replaced by respawn"}); err == nil {
			h.rankFailedHub(hi.Rank, data)
		}
	}

	hc := h.newHubConn(hi.Rank, conn, rd)

	h.mu.Lock()
	// Done-accounting: the slot must be counted exactly once when the world
	// finally winds down. If the dead incarnation was already counted done,
	// take that count back (the new incarnation will report its own); if it
	// was not, mark it counted so its pending teardown becomes a no-op.
	if old != nil && !old.doneCounted {
		old.doneCounted = true
	} else if h.done > 0 {
		h.done--
	}
	delete(h.failedRanks, hi.Rank)
	h.epoch++
	epoch := h.epoch
	h.conns[hi.Rank] = hc
	if h.lastPong != nil {
		h.lastPong[hi.Rank] = time.Now()
	}
	var mask uint64
	for r := range h.failedRanks {
		mask |= 1 << uint(r)
	}
	others := make([]*hubConn, 0, len(h.conns))
	for r, c := range h.conns {
		if r != hi.Rank && !h.failedRanks[r] {
			others = append(others, c)
		}
	}
	h.mu.Unlock()

	if data, err := encodeValue(rejoinInfo{Rank: hi.Rank, Epoch: epoch}); err == nil {
		for _, c := range others {
			_ = c.send(frame{Tag: tagRejoin, Data: data})
		}
	}
	data, err := encodeValue(startInfo{SuspicionNs: int64(h.opts.suspicion), Epoch: epoch, FailedMask: mask})
	if err != nil {
		h.fail(fmt.Errorf("mpi: hub respawn start signal: %w", err))
		return
	}
	// A failed write here is absorbed by the session machinery (or surfaces
	// as this incarnation's own prompt death through the route loop below).
	_ = hc.send(frame{Tag: tagStart, Data: data})
	h.route(hc, conn, hc.readerDown)
}

// heartbeatLoop pings every worker each interval and fails the job when a
// worker has not answered for three intervals. Suspended connections are
// skipped: the suspicion timer, not the heartbeat, owns their fate.
func (h *Hub) heartbeatLoop() {
	iv := h.opts.heartbeat
	ticker := time.NewTicker(iv)
	defer ticker.Stop()
	for {
		select {
		case <-h.finished:
			return
		case <-ticker.C:
		}
		now := time.Now()
		h.mu.Lock()
		var stale []int
		var staleConns []*hubConn
		conns := make([]*hubConn, 0, len(h.conns))
		for r, c := range h.conns {
			c.mu.Lock()
			skip := c.suspended || c.dead
			c.mu.Unlock()
			if skip {
				continue
			}
			conns = append(conns, c)
			if lp, ok := h.lastPong[r]; ok && now.Sub(lp) > 3*iv {
				stale = append(stale, r)
				staleConns = append(staleConns, c)
				if h.opts.recovery {
					// Stop tracking so the rank is handled exactly once.
					delete(h.lastPong, r)
				}
			}
		}
		h.mu.Unlock()
		if len(stale) > 0 {
			if h.opts.recovery {
				// Close the silent connections: each one's route loop turns
				// the broken read into a suspicion episode (under
				// HubSuspicion) or a recoverable rank failure.
				for _, c := range staleConns {
					c.mu.Lock()
					if c.conn != nil {
						c.conn.Close()
					}
					c.mu.Unlock()
				}
				continue
			}
			h.fail(fmt.Errorf("mpi: hub: ranks %v unresponsive (no heartbeat within %s); world revoked", stale, 3*iv))
			return
		}
		for _, c := range conns {
			_ = c.send(frame{Tag: tagPing})
		}
	}
}

// route forwards every frame read from one worker connection until the
// worker reports done or the connection breaks. Frames are dup-suppressed
// and acknowledged through the receive session; raw frames are forwarded
// verbatim. down is closed on return so a resume can safely reuse the
// wireReader.
func (h *Hub) route(hc *hubConn, conn net.Conn, down chan struct{}) {
	defer close(down)
	rd := hc.rd
	released := false
	for {
		f, seq, err := rd.readFrame()
		if err != nil {
			h.readerBroken(hc, conn, err)
			return
		}
		if !released {
			// A frame from this worker means it has its start signal, but the
			// broadcast may still be in progress: hold the frame until every
			// peer has been sent its own, or a fast starter's first message
			// would overtake a slower peer's start signal.
			if h.opts.startHeld != nil {
				h.opts.startHeld()
			}
			select {
			case <-h.startDone:
			case <-h.finished:
				f.release()
				return
			}
			released = true
		}
		hc.mu.Lock()
		if hc.dead || hc.conn != conn {
			// The session moved on (resume swapped the connection, or the
			// rank was retired) while this frame was in flight.
			hc.mu.Unlock()
			f.release()
			return
		}
		dup, ackNow := hc.recvq.note(seq)
		if dup {
			hc.mu.Unlock()
			f.release()
			continue
		}
		if ackNow && !hc.suspended {
			_ = hc.w.writeAck(hc.recvq.seqIn)
		}
		hc.mu.Unlock()
		if f.Dst == ctrlDst {
			switch f.Tag {
			case tagDone:
				// The worker sends nothing after done. Acknowledge everything
				// received first — the worker's drain holds its transport open
				// until the replay buffer clears — then retire the session so
				// its connection teardown is not mistaken for a failure.
				hc.mu.Lock()
				if !hc.dead && !hc.suspended && hc.conn == conn {
					_ = hc.w.writeAck(hc.recvq.seqIn)
				}
				hc.retireLocked()
				hc.mu.Unlock()
				h.workerDoneConn(hc)
				return
			case tagAbort:
				h.rankAborted(hc.rank, f.Data)
			case tagFailed:
				h.rankFailedHub(hc.rank, f.Data)
			case tagAgreeReq:
				h.agreeRequest(f.Data)
			case tagRevoke:
				h.broadcastRevoke(hc.rank, f.Ctx)
			case tagPong:
				h.mu.Lock()
				if h.lastPong != nil {
					h.lastPong[hc.rank] = time.Now()
				}
				h.mu.Unlock()
			}
			continue
		}
		h.mu.Lock()
		dst := h.conns[f.Dst]
		recovery := h.opts.recovery
		h.mu.Unlock()
		if dst == nil {
			f.release()
			if recovery {
				continue // destination already torn down; drop the frame
			}
			h.fail(fmt.Errorf("mpi: hub: frame for unknown rank %d", f.Dst))
			return
		}
		err = dst.send(f)
		f.release() // forwarded (or failed): recycle a raw frame's buffer
		if err != nil {
			if recovery || errors.Is(err, errHubConnDead) {
				// The destination's fate is (or will be) settled by its own
				// connection machinery; drop the frame.
				continue
			}
			h.fail(fmt.Errorf("mpi: hub: forwarding to rank %d: %w", f.Dst, err))
			return
		}
	}
}

// readerBroken handles a route loop's read error: suspend the session when
// it can resume, otherwise retire the rank (recovery) or fail the world.
func (h *Hub) readerBroken(hc *hubConn, conn net.Conn, err error) {
	hc.mu.Lock()
	if hc.dead || hc.conn != conn {
		// Stale error from a connection a resume already replaced.
		hc.mu.Unlock()
		return
	}
	if hc.canSuspendLocked() {
		hc.suspendLocked()
		hc.mu.Unlock()
		return
	}
	hc.retireLocked()
	hc.mu.Unlock()
	if h.connDropped(hc) {
		return
	}
	h.fail(fmt.Errorf("mpi: hub: connection to rank %d: %w", hc.rank, err))
}

// connDropped absorbs a worker connection breaking mid-run under recovery:
// the rank is recorded failed, survivors are notified, and the rank is
// counted done so the world still winds down. It reports whether the drop
// was absorbed (recovery hub, world already formed).
func (h *Hub) connDropped(hc *hubConn) bool {
	h.mu.Lock()
	active := h.opts.recovery && h.complete
	already := h.failedRanks[hc.rank]
	h.mu.Unlock()
	if !active {
		return false
	}
	if !already {
		data, err := encodeValue(abortInfo{Rank: hc.rank, Msg: "connection to hub lost"})
		if err == nil {
			h.rankFailedHub(hc.rank, data)
		}
	}
	h.workerDoneConn(hc)
	return true
}

// suspicionExpired fires when a suspected rank's grace window elapses
// without a successful resume: the suspicion is promoted to failure
// (recovery hubs) or the world is revoked (plain hubs).
func (h *Hub) suspicionExpired(hc *hubConn) {
	hc.mu.Lock()
	if hc.dead || !hc.suspended {
		hc.mu.Unlock()
		return
	}
	hc.retireLocked()
	hc.mu.Unlock()
	if h.opts.recovery {
		data, err := encodeValue(abortInfo{Rank: hc.rank, Msg: "connection to hub lost (suspicion window expired)"})
		if err == nil {
			h.rankFailedHub(hc.rank, data)
		}
		h.workerDoneConn(hc)
		return
	}
	h.fail(fmt.Errorf("mpi: hub: rank %d did not reconnect within %s; world revoked", hc.rank, h.opts.suspicion))
}

// sessionLost handles a resume that is provably impossible (a replay gap
// before the worker's acknowledged sequence): the rank fails immediately
// rather than burning the rest of its grace window.
func (h *Hub) sessionLost(hc *hubConn) {
	if h.opts.recovery {
		data, err := encodeValue(abortInfo{Rank: hc.rank, Msg: "hub session lost (replay gap; resume impossible)"})
		if err == nil {
			h.rankFailedHub(hc.rank, data)
		}
		h.workerDoneConn(hc)
		return
	}
	h.fail(fmt.Errorf("mpi: hub: session to rank %d lost (replay gap; resume impossible)", hc.rank))
}

// workerDoneConn counts one connection's slot as finished, exactly once per
// incarnation; when the last slot reports, the hub shuts the world down.
func (h *Hub) workerDoneConn(hc *hubConn) {
	h.mu.Lock()
	if hc.doneCounted {
		h.mu.Unlock()
		return
	}
	hc.doneCounted = true
	h.done++
	last := h.done == h.np
	h.mu.Unlock()
	if last {
		h.shutdown()
	}
}

// rankFailedHub records a recoverable rank failure, announces it to the
// survivors (who interrupt their pending operations), and settles any open
// agreement that was waiting on the failed rank.
func (h *Hub) rankFailedHub(origin int, payload []byte) {
	h.mu.Lock()
	if !h.opts.recovery || h.failedRanks[origin] {
		h.mu.Unlock()
		return
	}
	h.failedRanks[origin] = true
	others := make([]*hubConn, 0, len(h.conns))
	for r, c := range h.conns {
		if r != origin && !h.failedRanks[r] {
			others = append(others, c)
		}
	}
	h.mu.Unlock()
	for _, c := range others {
		_ = c.send(frame{Tag: tagFailed, Data: payload})
	}
	h.settleAgreements()
}

// agreeRequest folds one worker's agreement contribution in and settles.
func (h *Hub) agreeRequest(payload []byte) {
	var req agreeReq
	if err := decodeValue(payload, &req); err != nil {
		h.fail(fmt.Errorf("mpi: hub: undecodable agreement request: %w", err))
		return
	}
	h.mu.Lock()
	key := agreeKey{ctx: req.Ctx, seq: req.Seq}
	a := h.agreements[key]
	if a == nil {
		a = &hubAgree{members: req.Members, masks: make(map[int]uint64)}
		h.agreements[key] = a
	}
	a.masks[req.Rank] = req.Mask
	h.mu.Unlock()
	h.settleAgreements()
}

// settleAgreements applies the decision rule to every open instance: decide
// once every live member has contributed, with the decided mask the union
// of the contributions and the hub's own view of the failed members. The
// decision goes to every live contributor.
func (h *Hub) settleAgreements() {
	type decided struct {
		conns []*hubConn
		resp  agreeResp
	}
	var out []decided
	h.mu.Lock()
	for key, a := range h.agreements {
		decision := uint64(0)
		ready := true
		for _, m := range a.members {
			if h.failedRanks[m] {
				decision |= 1 << uint(m)
				continue
			}
			if _, ok := a.masks[m]; !ok {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for _, mask := range a.masks {
			decision |= mask
		}
		var conns []*hubConn
		for r := range a.masks {
			if c := h.conns[r]; c != nil && !h.failedRanks[r] {
				conns = append(conns, c)
			}
		}
		delete(h.agreements, key)
		out = append(out, decided{conns: conns, resp: agreeResp{Ctx: key.ctx, Seq: key.seq, Mask: decision}})
	}
	h.mu.Unlock()
	for _, d := range out {
		data, err := encodeValue(d.resp)
		if err != nil {
			continue
		}
		for _, c := range d.conns {
			_ = c.send(frame{Tag: tagAgreeResp, Data: data})
		}
	}
}

// broadcastRevoke fans one worker's context revoke out to its peers.
func (h *Hub) broadcastRevoke(origin int, ctx int64) {
	h.mu.Lock()
	others := make([]*hubConn, 0, len(h.conns))
	for r, c := range h.conns {
		if r != origin && !h.failedRanks[r] {
			others = append(others, c)
		}
	}
	h.mu.Unlock()
	for _, c := range others {
		_ = c.send(frame{Tag: tagRevoke, Ctx: ctx})
	}
}

// FailedRanks reports the world ranks that failed recoverably, sorted. A
// recovered run has Wait() == nil and a non-empty FailedRanks. Ranks that
// failed but were later respawned into their slots are not included.
func (h *Hub) FailedRanks() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.failedRanks))
	for r := range h.failedRanks {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Done returns a channel that is closed when the hub has wound the world
// down, cleanly or on failure. External respawn supervisors (mpirun
// -respawn with -transport procs) select on it to stop relaunching a dead
// rank once the job is over.
func (h *Hub) Done() <-chan struct{} { return h.finished }

// Epoch reports the hub's membership epoch: the number of respawn
// re-admissions it has performed.
func (h *Hub) Epoch() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// rankAborted records a worker-reported failure and broadcasts the revoke
// to every other worker, which poisons their mailboxes. The world still
// winds down through the normal done protocol: every surviving rank's main
// returns promptly with ErrWorldAborted.
func (h *Hub) rankAborted(origin int, payload []byte) {
	var info abortInfo
	if err := decodeValue(payload, &info); err != nil {
		info = abortInfo{Rank: origin, Msg: "rank failed (undecodable abort report)"}
	}
	h.mu.Lock()
	if h.abortErr == nil {
		h.abortErr = info.err()
	}
	others := make([]*hubConn, 0, len(h.conns))
	for r, c := range h.conns {
		if r != origin {
			others = append(others, c)
		}
	}
	h.mu.Unlock()
	for _, c := range others {
		_ = c.send(frame{Tag: tagAbort, Data: payload})
	}
}

// fail records the first error and shuts the hub down, unless the job had
// already completed cleanly. Before tearing connections down it broadcasts
// the revoke to every worker, so survivors blocked in a receive observe
// ErrWorldAborted naming the failure rather than a bare disconnect.
func (h *Hub) fail(err error) {
	h.mu.Lock()
	alreadyFinished := h.done == h.np
	if h.err == nil && !alreadyFinished {
		h.err = err
	}
	conns := make([]*hubConn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	if alreadyFinished {
		return
	}
	if data, encErr := encodeValue(abortInfo{Rank: -1, Msg: err.Error()}); encErr == nil {
		for _, c := range conns {
			_ = c.send(frame{Tag: tagAbort, Data: data})
		}
	}
	h.shutdown()
}

func (h *Hub) shutdown() {
	h.mu.Lock()
	conns := h.conns
	h.conns = map[int]*hubConn{}
	if h.formTimer != nil {
		h.formTimer.Stop()
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, c := range conns {
		c.mu.Lock()
		c.retireLocked()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	}
	h.finishOnce.Do(func() { close(h.finished) })
}

// Wait blocks until every rank has reported completion (or the hub failed)
// and returns the hub's error state: nil for a clean run, the revoke error
// (wrapping the originating rank's failure) for an aborted world, or the
// hub's own first failure.
func (h *Hub) Wait() error {
	<-h.finished
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.abortErr != nil {
		return h.abortErr
	}
	if h.done == h.np {
		return nil
	}
	return h.err
}

// Close shuts the hub down immediately.
func (h *Hub) Close() { h.shutdown() }

// Worker connection states.
const (
	tcpActive       = iota // connection healthy, frames flowing
	tcpReconnecting        // connection broken, redialing within the grace window
	tcpDead                // transport over (clean close, grace expiry, or fatal error)
)

// tcpTransport is one rank's side of the TCP world: the hub connection, the
// framing layers, and the session state that lets a broken connection be
// redialed and resumed instead of killing the rank. mu guards
// all mutable state but the read lease (lease.go), which says who reads the
// connection; cond wakes the reader (parked during reconnects) and anyone
// waiting for the reader to park.
type tcpTransport struct {
	addr    string
	rank    int
	noDelay *bool

	// What the reader dispatches to (serve), and the fallback reader's exit.
	world    *World
	box      *mailbox
	lease    readLease
	fallback sync.WaitGroup
	claimed  *waiter // the lease holder's: the receive the frame being read is landing in (rd.land)

	mu         sync.Mutex
	cond       *sync.Cond
	conn       net.Conn
	w          *wireWriter
	rd         *wireReader
	state      int
	deadErr    error
	grace      time.Duration // suspicion window learned from the start frame
	gen        int           // connection generation; stale errors are discarded by it
	readerBusy bool          // the lease holder is parked on, or reading from, conn without the lock
	closing    bool          // drain started: the rank is done and tearing down
	send       sendSession
	recv       recvSession
}

func newTCPTransport(addr string, rank int, conn net.Conn, noDelay *bool) *tcpTransport {
	t := &tcpTransport{
		addr:    addr,
		rank:    rank,
		noDelay: noDelay,
		conn:    conn,
		w:       newWireWriter(conn),
		rd:      newWireReader(conn),
		lease:   readLease{quiet: leaseQuiet, nudge: make(chan struct{}, 1)},
	}
	t.cond = sync.NewCond(&t.mu)
	t.w.sess = &t.send
	t.rd.onAck = func(ack uint64) {
		t.mu.Lock()
		t.send.trim(ack)
		if len(t.send.replay) == 0 {
			t.cond.Broadcast() // a drain may be waiting for the tail to clear
		}
		t.mu.Unlock()
	}
	t.rd.land = func(f frame, n int) (into []byte) {
		t.claimed, into = t.box.claim(&f, n)
		return into
	}
	return t
}

// Send puts one outbound frame on the session: sequenced and captured for
// replay, or parked while the transport redials (wireWriter.transmit); a
// write error with a grace window configured moves the transport into
// reconnection (the frame is safe in the replay buffer) instead of surfacing
// the error. transmit serializes typed payloads on the spot, so frame.Val is
// fully consumed by the time Send returns (the borrow rule, frame.borrowed).
func (t *tcpTransport) Send(f frame) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == tcpDead {
		return fmt.Errorf("mpi: tcp send: %w", t.deadErr)
	}
	werr, err := t.w.transmit(f, t.state == tcpReconnecting)
	if werr == nil {
		return err
	}
	if t.grace > 0 {
		t.enterReconnectLocked(werr)
		return nil
	}
	t.dieLocked(werr)
	return fmt.Errorf("mpi: tcp send: %w", werr)
}

// recvFrame reads the next frame from the hub, for the holder of the read
// lease. The fallback reader (wake nil) rides out reconnections: while the
// transport is redialing it parks on the condition variable. A blocked
// receive (wake its waiter's wake-up slot) waits for the frame's first byte
// interruptibly and returns errReadInterrupted, with nothing consumed, when a
// wake-up comes first or the connection is being redialed. Read errors from
// torn-down connections are discarded by the generation counter. Frames are
// dup-suppressed and acknowledged through the receive session.
//
// A streamed frame whose payload was read straight into the receive posted
// for it (rd.land) is returned with that receive, still claimed, for dispatch
// to complete. If the frame is not returned — the read or its CRC failed, a
// reconnect replaced the connection under it, the session had seen it — the
// receive goes back to the mailbox and the frame is lost as any other is.
func (t *tcpTransport) recvFrame(wake <-chan struct{}) (frame, *waiter, error) {
	for {
		t.mu.Lock()
		for t.state == tcpReconnecting {
			if wake != nil {
				t.mu.Unlock()
				return frame{}, nil, errReadInterrupted
			}
			t.cond.Wait()
		}
		if t.state == tcpDead {
			err := t.deadErr
			t.mu.Unlock()
			return frame{}, nil, err
		}
		rd, conn := t.rd, t.conn
		gen := t.gen
		t.readerBusy = true
		t.mu.Unlock()

		var f frame
		var seq uint64
		var err error
		if wake != nil {
			err = t.lease.park(conn, rd.br, wake)
		}
		if err == nil {
			f, seq, err = rd.readFrame()
		}
		claimed := t.claimed
		if t.claimed = nil; err != nil {
			t.drop(f, claimed) // before the error is acted on: the mailbox lock comes first
		}

		t.mu.Lock()
		t.readerBusy = false
		t.cond.Broadcast()
		if err == errReadInterrupted {
			t.mu.Unlock()
			return frame{}, nil, err
		}
		if err != nil {
			if t.gen != gen || t.state != tcpActive {
				// The transport already moved on (reconnect or death): this
				// error belongs to the torn-down connection.
				t.mu.Unlock()
				continue
			}
			if t.grace > 0 && !(t.closing && len(t.send.replay) == 0) {
				// Not worth resuming once the rank is done and its tail is
				// acknowledged: the hub retiring the session closes the
				// connection, and that EOF is teardown, not a break.
				t.enterReconnectLocked(err)
				t.mu.Unlock()
				continue
			}
			t.dieLocked(err)
			t.mu.Unlock()
			return frame{}, nil, err
		}
		if t.gen != gen {
			// A frame from a connection a reconnect already replaced;
			// resume retransmission will deliver it again in order.
			t.mu.Unlock()
			t.drop(f, claimed)
			continue
		}
		dup, ackNow := t.recv.note(seq)
		if dup {
			t.mu.Unlock()
			t.drop(f, claimed)
			continue
		}
		if ackNow && t.state == tcpActive {
			_ = t.w.writeAck(t.recv.seqIn)
		}
		t.mu.Unlock()
		return f, claimed, nil
	}
}

// drop discards a frame that was read but is not to be delivered, and gives
// the receive its payload was read into back to the mailbox. Called without
// t.mu: the mailbox lock comes first.
func (t *tcpTransport) drop(f frame, claimed *waiter) {
	f.release()
	if claimed != nil {
		t.box.unclaim(claimed)
	}
}

// enterReconnectLocked moves an active transport into reconnection: the
// broken connection is closed, the generation advances (so its pending read
// error is discarded), and the redial loop starts. Receives stop reading and
// the fallback is called to wait the redial out: the hub retransmits the
// moment it resumes. Caller holds t.mu.
func (t *tcpTransport) enterReconnectLocked(cause error) {
	if t.state != tcpActive {
		return
	}
	t.state = tcpReconnecting
	t.lease.connDown(false)
	t.gen++
	if t.conn != nil {
		t.conn.Close()
	}
	go t.reconnect(cause)
}

// dieLocked retires the transport for good. Caller holds t.mu.
func (t *tcpTransport) dieLocked(cause error) {
	if t.state == tcpDead {
		return
	}
	t.state = tcpDead
	t.deadErr = cause
	t.lease.connDown(true)
	t.gen++
	if t.conn != nil {
		t.conn.Close()
	}
	t.send.drop()
	t.cond.Broadcast()
}

// reconnect redials the hub until the grace window closes, then performs
// the resume handshake: a fresh-encoder hello{Resume, Ack} (the persistent
// session encoders stay untouched), a 9-byte raw reply carrying the hub's
// acknowledged sequence, and retransmission of the unacknowledged tail.
func (t *tcpTransport) reconnect(cause error) {
	deadline := time.Now().Add(t.grace)
	backoff := 2 * time.Millisecond
	for {
		t.mu.Lock()
		if t.state != tcpReconnecting {
			t.mu.Unlock()
			return
		}
		ack := t.recv.seqIn
		t.mu.Unlock()
		if time.Now().After(deadline) {
			t.mu.Lock()
			t.dieLocked(fmt.Errorf("%w: grace window (%s) expired: %v", ErrSessionLost, t.grace, cause))
			t.mu.Unlock()
			return
		}
		conn, err := net.Dial("tcp", t.addr)
		if err != nil {
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		if t.noDelay != nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(*t.noDelay)
			}
		}
		// A fresh one-shot encoder for the resume hello: the hub reads it
		// with a fresh decoder, so the session's persistent gob streams —
		// which must survive the swap byte-exact — are never touched.
		if err := gob.NewEncoder(conn).Encode(hello{Rank: t.rank, Wire: wireVersion2, Resume: true, Ack: ack}); err != nil {
			conn.Close()
			time.Sleep(backoff)
			continue
		}
		var reply [1 + seqLen]byte
		_ = conn.SetReadDeadline(time.Now().Add(resumeReplyTimeout))
		if _, err := io.ReadFull(conn, reply[:]); err != nil {
			conn.Close()
			time.Sleep(backoff)
			continue
		}
		_ = conn.SetReadDeadline(time.Time{})
		if reply[0] == 0 {
			conn.Close()
			t.mu.Lock()
			t.dieLocked(fmt.Errorf("%w: hub refused the resume", ErrSessionLost))
			t.mu.Unlock()
			return
		}
		hubAck := le.Uint64(reply[1:])

		t.mu.Lock()
		if t.state != tcpReconnecting {
			t.mu.Unlock()
			conn.Close()
			return
		}
		for t.readerBusy {
			t.cond.Wait()
		}
		if t.state != tcpReconnecting {
			t.mu.Unlock()
			conn.Close()
			return
		}
		entries, ok := t.send.pending(hubAck)
		if !ok {
			conn.Close()
			t.dieLocked(fmt.Errorf("%w: replay gap before the hub's acknowledged sequence", ErrSessionLost))
			t.mu.Unlock()
			return
		}
		t.conn = conn
		t.w.resetConn(conn)
		t.rd.resetConn(conn)
		t.recv.sinceAck = 0
		t.gen++
		t.state = tcpActive
		t.lease.connUp()
		// Wake the parked fallback reader before retransmitting: it drains the
		// hub's concurrent retransmission while ours flows the other way,
		// keeping the kernel buffers from filling in both directions at once.
		// (A reader re-acquires the lock only between frames, so the tail
		// below goes out contiguously before any new Send interleaves.)
		t.cond.Broadcast()
		var werr error
		for _, e := range entries {
			if werr = t.w.writeEncoded(e.buf); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = t.w.flush()
		}
		if werr != nil {
			// The fresh connection broke during retransmission; go around.
			// The hub side stays suspended on its original grace timer.
			t.enterReconnectLocked(werr)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		return
	}
}

// severConnection implements disconnectCapable: FaultDisconnect closes the
// live connection underneath the session, exactly like a NAT timeout. The
// session machinery observes the break and reconnects within the grace
// window (or dies, if no HubSuspicion was configured).
func (t *tcpTransport) severConnection() {
	t.mu.Lock()
	if t.state == tcpActive && t.conn != nil {
		t.conn.Close()
	}
	t.mu.Unlock()
}

// corruptNextFrame implements corruptCapable: FaultCorrupt arms a one-shot
// bit flip on the next raw frame's payload, applied at wire-write time only
// — the captured replay copy stays clean, so the retransmission after the
// CRC failure heals the corruption.
func (t *tcpTransport) corruptNextFrame() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == tcpDead {
		return false
	}
	t.w.corruptNext = true
	return true
}

// drain blocks until the session has settled: no resume in flight and every
// captured frame acknowledged by the hub. A send-only rank can reach the end
// of main with its entire tail — the done control frame included — either
// parked in the replay buffer mid-resume or flushed to a socket the hub has
// already condemned (a CRC failure suspends the connection and discards
// everything after the corrupt frame); closing the transport at that moment
// would strand frames the hub still needs. The wait is bounded by the grace
// window plus slack, because every path out of a broken session — resume,
// refusal, expiry — resolves within it. Sessions without a grace window wait
// for the hub's acknowledgement of done too: closing first, with an ack still
// unread in this socket, resets the connection under the hub's read of it,
// which the hub reports as a lost rank.
func (t *tcpTransport) drain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closing = true
	t.lease.wantFallback() // nobody is receiving: the acks are the fallback's to read, now
	timedOut := false
	timer := time.AfterFunc(t.grace+time.Second, func() {
		t.mu.Lock()
		timedOut = true
		t.mu.Unlock()
		t.cond.Broadcast()
	})
	defer timer.Stop()
	for !timedOut && t.state != tcpDead &&
		(t.state == tcpReconnecting || len(t.send.replay) > 0) {
		t.cond.Wait()
	}
}

// Close retires the transport and returns once the fallback reader has left.
func (t *tcpTransport) Close() error {
	t.mu.Lock()
	t.dieLocked(errors.New("mpi: tcp transport closed"))
	t.mu.Unlock()
	t.fallback.Wait()
	return nil
}

// defaultDialRetry is JoinTCP's dial budget when WithDialRetry is not set:
// long enough to ride out a hub that is still binding its listener, short
// enough that a dead address fails the worker promptly.
const defaultDialRetry = 3 * time.Second

// dialHub dials addr, retrying failed dials with exponential backoff and
// jitter until the budget elapses — so launching workers before the hub is
// a race the runtime absorbs instead of a crash.
func dialHub(addr string, budget time.Duration) (net.Conn, error) {
	if budget == 0 {
		budget = defaultDialRetry
	}
	conn, err := net.Dial("tcp", addr)
	if err == nil || budget < 0 {
		if err != nil {
			return nil, fmt.Errorf("mpi: joining hub %s: %w", addr, err)
		}
		return conn, nil
	}
	deadline := time.Now().Add(budget)
	backoff := 5 * time.Millisecond
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("mpi: joining hub %s (retried for %s): %w", addr, budget, err)
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
	}
}

// JoinTCP connects to the hub at addr as the given rank of an np-rank world
// and runs main there: the worker half of a distributed "mpirun". It
// returns when main returns (converting panics to errors, as Run does).
// Dials are retried with backoff while the hub is still coming up. If this
// rank fails, the failure is reported to the hub, which revokes the world
// for every peer; if a peer fails first, main's blocked operations return
// ErrWorldAborted naming the failing rank.
func JoinTCP(addr string, rank, np int, main func(c *Comm) error, opts ...Option) error {
	return joinHub(addr, "", rank, np, false, main, opts...)
}

// RejoinTCP connects a relaunched process back into a running world as the
// given (previously failed) rank: the worker half of respawn recovery
// (mpirun -respawn). The hub retires the dead incarnation, re-admits the
// rank into its old slot at the original world width, bumps the membership
// epoch, and announces the rejoin to the survivors. The respawned main
// starts from the beginning; its first operation fails with the retryable
// membership-changed error, which routes it into the program's Restored +
// checkpoint-restore path, exactly like the survivors. Requires WithRecovery
// (or WithRespawn) here and HubRecovery on the hub.
func RejoinTCP(addr string, rank, np int, main func(c *Comm) error, opts ...Option) error {
	return joinHub(addr, "", rank, np, true, main, opts...)
}

// joinHub is the shared worker body behind JoinTCP, RejoinTCP, and JoinShm:
// dial the hub, optionally map the shared-memory segment at segPath as the
// data plane (control frames and non-shm pairs keep the hub connection),
// then run the start/run/done protocol. It reads the start frame itself; from
// there on the transport's read lease decides who reads the connection
// (tcpTransport.serve). respawn re-admits a previously failed rank instead of
// registering a new one.
func joinHub(addr, segPath string, rank, np int, respawn bool, main func(c *Comm) error, opts ...Option) error {
	if rank < 0 || rank >= np {
		return fmt.Errorf("%w: %d (np %d)", ErrInvalidRank, rank, np)
	}
	cfg, err := newConfig(np, opts)
	if err != nil {
		return err
	}
	if respawn {
		// A respawned incarnation must not re-run the fault plan: the injected
		// kill (or disconnect) that took its predecessor down has done its
		// work, and re-injecting it would kill every relaunch deterministically.
		cfg.faults = nil
	}
	if !cfg.recovery && respawn {
		return fmt.Errorf("mpi: RejoinTCP requires WithRecovery (or WithRespawn)")
	}

	conn, err := dialHub(addr, cfg.dialRetry)
	if err != nil {
		return err
	}
	if cfg.noDelay != nil {
		if tc, ok := conn.(*net.TCPConn); ok {
			if err := tc.SetNoDelay(*cfg.noDelay); err != nil {
				conn.Close()
				return fmt.Errorf("mpi: setting TCP_NODELAY: %w", err)
			}
		}
	}
	t := newTCPTransport(addr, rank, conn, cfg.noDelay)
	if cfg.leaseQuiet > 0 {
		t.lease.quiet = cfg.leaseQuiet
	}
	// The data-plane transport: the hub connection alone, or the shm
	// endpoint layered over it. The segment must be attached before the
	// hello goes out, so every peer's sticky shm-vs-TCP routing decision —
	// made no earlier than the post-hello start signal — sees this rank.
	var data Transport = t
	var shmT *shmTransport
	if segPath != "" {
		st, serr := newShmTransport(segPath, rank, np, t)
		if serr != nil {
			t.Close()
			return serr
		}
		if st != nil {
			shmT = st
			data = st
		}
		// st == nil: segment belongs to another host; stay on pure TCP.
	}
	defer data.Close()

	if err := t.w.writeHello(hello{Rank: rank, Wire: wireVersion2, Respawn: respawn}); err != nil {
		return fmt.Errorf("mpi: hello to hub: %w", err)
	}

	box := newMailbox()

	// The start frame arrives before any routed traffic. A pre-start abort
	// (another worker failed the handshake, or formation timed out) arrives
	// here instead of the start signal.
	start, _, err := t.recvFrame(nil)
	if err != nil {
		return fmt.Errorf("mpi: waiting for world start: %w", err)
	}
	var si startInfo
	switch start.Tag {
	case tagStart:
		if len(start.Data) > 0 {
			if derr := decodeValue(start.Data, &si); derr != nil {
				return fmt.Errorf("mpi: undecodable start signal: %w", derr)
			}
		}
	case tagAbort:
		var info abortInfo
		if err := decodeValue(start.Data, &info); err != nil {
			return fmt.Errorf("mpi: world aborted before start: %w", err)
		}
		return fmt.Errorf("mpi: rank %d: %w", rank, info.err())
	default:
		return fmt.Errorf("mpi: unexpected frame before start signal (tag %d)", start.Tag)
	}
	if shmT != nil {
		// Every rank maps the segment before its hello and the start signal
		// follows the last hello, so nothing opens the path again (a respawned
		// rank joins over TCP): unlink it now, whichever rank is first, and a
		// run that is killed leaves nothing behind. The launcher's own removal
		// is for a world that never formed.
		_ = os.Remove(segPath)
	}
	if si.SuspicionNs > 0 {
		// Arm session resumption: from here on a broken connection is a
		// reconnect-and-resume episode, not a death sentence.
		t.mu.Lock()
		t.grace = time.Duration(si.SuspicionNs)
		t.mu.Unlock()
	}

	host, herr := os.Hostname()
	if herr != nil || host == "" {
		host = "localhost"
	}
	names := make([]string, np)
	for i := range names {
		if i < len(cfg.names) && cfg.names[i] != "" {
			names[i] = cfg.names[i]
		} else {
			names[i] = host
		}
	}
	boxes := make([]*mailbox, np)
	boxes[rank] = box

	transport := cfg.wrapTransport(data)
	w := &World{
		np:        np,
		transport: transport,
		boxes:     boxes,
		names:     names,
		gate:      cfg.gate,
		epoch:     time.Now(),
		wire:      !cfg.serializeAll, // raw-encodable slices reach Send uncopied; transmit encodes them there
		deadline:  cfg.deadline,
		faults:    cfg.faultT,
		nodeOf:    cfg.nodeOf,
		hierMode:  cfg.hierMode,
	}
	if cfg.recovery {
		w.recov = newRecoveryState(w)
		// Control frames bypass the decorated transport: a fault plan that
		// killed this rank must not also sever its recovery reporting.
		w.recov.ctrlSend = t.Send
		// A respawned worker starts life already in the hub's membership
		// epoch, carrying the hub's view of the still-failed ranks: its very
		// first operation on the stale world communicator must be interrupted
		// into the Restored path.
		w.recov.seedEpoch(si.Epoch, si.FailedMask)
	}
	if shmT != nil {
		shmT.bind(w, box)
		w.shmT = shmT
		// Recovery hooks: a failed peer's staging space is reclaimed and its
		// blocked senders released the moment the failure is recorded; a
		// respawned peer's pair is pinned onto the TCP fallback (the new
		// process shares no segment with this one).
		w.peerFailed = shmT.peerFailed
		w.peerRejoined = shmT.peerRejoined
		shmT.startPolling()
		if h := shmTestHook; h != nil {
			h(shmT)
		}
	}

	// From here on the read lease says who reads the hub connection: a
	// receive blocked on it, or the transport's fallback reader (lease.go).
	// Worlds with an shm data plane leave it to the fallback alone.
	t.serve(w, box, shmT == nil)

	runErr := runRank(w, rank, main)
	if runErr == nil {
		_ = t.Send(frame{Dst: ctrlDst, Tag: tagDone})
		// Settle the session before the deferred Close tears it down: a rank
		// that only ever sent may owe the hub its whole unacknowledged tail.
		t.drain()
		return nil
	}
	if errors.Is(runErr, ErrWorldAborted) {
		// A victim of someone else's failure: the revoke is already
		// propagating, so just finish the done protocol.
		_ = t.Send(frame{Dst: ctrlDst, Tag: tagDone})
		return runErr
	}
	if w.recov != nil {
		// Recoverable failure: record it locally (interrupts this process's
		// own pending requests), report it to the hub — which notifies the
		// survivors and settles agreements — and complete the done protocol.
		// The world lives on without this rank.
		w.rankFailed(rank, runErr)
		if data, encErr := encodeValue(abortInfo{Rank: rank, Msg: runErr.Error()}); encErr == nil {
			_ = t.Send(frame{Dst: ctrlDst, Tag: tagFailed, Data: data})
		}
		_ = t.Send(frame{Dst: ctrlDst, Tag: tagDone})
		t.drain() // the failure report must not be stranded mid-resume
		return runErr
	}
	// This rank originated the failure: revoke locally (unblocks any of its
	// own pending Irecv goroutines), report to the hub so peers revoke too,
	// then complete the done protocol. The abort must precede done — the
	// hub stops reading this connection at done.
	w.abort(runErr)
	if data, encErr := encodeValue(abortInfo{Rank: rank, Msg: runErr.Error()}); encErr == nil {
		_ = t.Send(frame{Dst: ctrlDst, Tag: tagAbort, Data: data})
	}
	_ = t.Send(frame{Dst: ctrlDst, Tag: tagDone})
	return &abortError{cause: runErr}
}

// RunTCP executes main as an SPMD program of np ranks connected through a
// loopback TCP hub, all within the calling process: functionally Run, but
// exercising the real network transport. It is the single-machine analogue
// of a cluster job and the transport the ablation benchmarks compare
// against the in-process one. Under WithRespawn, a failed rank is
// relaunched (via RejoinTCP semantics) into its old slot at the original
// world width.
func RunTCP(np int, main func(c *Comm) error, opts ...Option) error {
	return runHub(np, "", main, opts...)
}

// runHub is the shared single-process launcher behind RunTCP and RunShm: a
// loopback hub plus np joinHub goroutines, with segPath selecting the data
// plane ("" = TCP only).
func runHub(np int, segPath string, main func(c *Comm) error, opts ...Option) error {
	cfg, err := newConfig(np, opts)
	if err != nil {
		return err
	}
	hubOpts := cfg.hubOpts
	if cfg.recovery {
		hubOpts = append(append([]HubOption(nil), hubOpts...), HubRecovery())
	}
	hub, err := StartHub("127.0.0.1:0", np, hubOpts...)
	if err != nil {
		return err
	}
	defer hub.Close()

	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for rank := 0; rank < np; rank++ {
		go func(rank int) {
			defer wg.Done()
			err := joinHub(hub.Addr(), segPath, rank, np, false, main, opts...)
			if cfg.respawn {
				// Respawn supervision: relaunch the dead rank into its old
				// slot. The rejoin is pure TCP even on shm worlds — a
				// respawned process shares no segment with the survivors, and
				// the hub's rejoin broadcast pins the survivors' pairs to it
				// onto the TCP fallback.
				for attempt := 1; err != nil && !errors.Is(err, ErrWorldAborted) &&
					attempt <= maxRespawnsPerRank; attempt++ {
					select {
					case <-hub.finished:
						errs[rank] = err
						return
					default:
					}
					err = joinHub(hub.Addr(), "", rank, np, true, main, opts...)
				}
			}
			errs[rank] = err
		}(rank)
	}
	wg.Wait()
	hubErr := hub.Wait()

	// Recovery verdict: if the hub wound the world down cleanly and at
	// least one rank completed, the survivors carried the run to the end —
	// report success, as Run does.
	if cfg.recovery && hubErr == nil {
		for _, e := range errs {
			if e == nil {
				return nil
			}
		}
	}

	// Prefer the originating failure: a victim's error carries only the
	// remote description of the cause, while the originator's JoinTCP
	// return still wraps the rank's own error with errors.Is identity.
	var victim error
	for _, e := range errs {
		if e == nil {
			continue
		}
		var remote *remoteAbortError
		if errors.As(e, &remote) {
			if victim == nil {
				victim = e
			}
			continue
		}
		return e
	}
	if hubErr != nil {
		return hubErr
	}
	return victim
}
