package mpi

import (
	"errors"
	"fmt"
	"net"
	"slices"
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
// Wire protocol, per connection. The stream opens with a hello, one
// self-contained gob value naming the rank and the wire version, which the
// hub checks; from there on both directions carry the one frame layout of
// wire.go, which makes the connection a resumable *session* (session.go):
// every frame carries a sequence number and a CRC32C, receivers ack
// cumulatively, and senders keep unacknowledged frames in a bounded replay
// buffer. A control frame's Data is a gob payload in that same layout.
// Message sequence:
//
//	hello{Rank, Wire}      worker -> hub, once, identifies the rank
//	frame{Tag: tagStart}   hub -> worker, once, after all ranks joined;
//	                       Data carries a gob startInfo (suspicion grace,
//	                       membership epoch, failed and gone ranks)
//	frame{...}             either direction, user and collective traffic
//	frame{Dst: ctrlDst, Tag: tagDone}   worker -> hub, rank finished (under
//	                                    recovery a live rank departs)
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
//	                                        carrying the hub's epoch
//	frame{Dst: ctrlDst, Tag: tagAgreeReq}   worker -> hub, agreement
//	                                        contribution; Data: gob agreeReq
//	frame{Tag: tagAgreeResp}                hub -> worker, agreement decision;
//	                                        Data: gob agreeResp
//	frame{Dst: ctrlDst, Tag: tagRevoke, Ctx: c, Src: l} worker -> hub, ctxKey{c, l} revoked
//	frame{Tag: tagRevoke, Ctx: c, Src: l}   hub -> worker, revoke broadcast
//
// Resilient sessions (HubSuspicion) change what a broken connection means.
// When a worker's connection breaks — on either side — the hub marks the
// rank *suspected* (not failed), parks its frames in the replay buffer, and
// arms a grace timer; the worker redials with hello{Resume: true, Ack}
// carrying the highest sequence it received. The hub replies with a 9-byte
// raw verdict (accepted flag + its own receive sequence) and both sides
// retransmit their unacknowledged tails. Only grace-window expiry (or a
// replay gap that makes the resume impossible) promotes suspected to failed.
//
// Respawn recovery (WithRespawn / mpirun -respawn) adds one more tag:
//
//	hello{Rank, Wire, Rejoin: true}    a relaunched process re-admits into
//	                                   its old (failed) slot
//	frame{Tag: tagRejoin}              hub -> survivors; Data: gob rejoinInfo
//	                                   (the rank and the new membership epoch)
//
// Re-admission bumps the hub's membership epoch; survivors and the newcomer
// re-form at the original width through Comm.Recover.
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
	// Wire names the frame format the worker speaks (wire.go): wireVersion,
	// or the hub refuses the connection; writeHello fills it in. Every worker is launched from the
	// launcher's own binary, so another value is a program from another tree.
	Wire int
	// Resume marks a session-resume dial: the worker's original connection
	// broke and it is redialing within the grace window. Ack carries the
	// highest sequence number the worker received before the break.
	Resume bool
	Ack    uint64
	// Rejoin marks a relaunched process re-admitting into its old slot
	// after its previous incarnation failed (respawn recovery).
	Rejoin bool
}

// startInfo rides in the start frame's Data: the session grace window the
// hub was configured with, and — for respawned workers — the membership
// epoch and the hub's view of the still-failed ranks (and of those gone for
// good) at admission time.
type startInfo struct {
	SuspicionNs int64
	Epoch       int
	Failed      rankSet
	Gone        rankSet
}

// rejoinInfo rides in a tagRejoin broadcast: which rank was respawned into
// its old slot, and the membership epoch its re-admission established.
type rejoinInfo struct {
	Rank  int
	Epoch int
}

// abortInfo is the wire form of a world revoke or a rank failure: which rank
// failed (or -1 when the hub itself did) and its error, surviving only as
// text. A hub's failure notice also carries the membership epoch the failure
// was recorded in, so a worker that has already applied a later rejoin of the
// rank can tell the notice is stale, and whether the rank is gone for good.
type abortInfo struct {
	Rank  int
	Msg   string
	Epoch int
	Gone  bool
}

// err is the revoke a worker reports for an abort that arrived over the wire
// from another process: the originating rank's error survives only as its
// text, which names the rank.
func (ai abortInfo) err() error {
	return &abortError{cause: errors.New(ai.Msg)}
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
// instead of waiting forever on a worker that never dialed. On a recovery
// hub, a failed rank not re-admitted within d is gone for good: Recover
// gives up on it and its rejoin is refused. Zero (the default) waits
// indefinitely, and a failed rank is gone at once unless Hub.Supervise
// relaunches it.
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
// revoking the world, and the hub coordinates the survivors' agreements.
// Pair it with WithRecovery on the workers; RunTCP adds it automatically.
func HubRecovery() HubOption {
	return func(o *hubOptions) { o.recovery = true }
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
	err      error
	abortErr error // first rank-reported abort; preferred by Wait
	lastPong map[int]time.Time

	// Recovery bookkeeping (HubRecovery, agree.go): the world's membership,
	// whose epoch each respawn re-admission bumps, and the open agreement
	// instances the hub is coordinating.
	m          membership
	agreements agreements

	formTimer  *time.Timer
	finished   chan struct{}
	finishOnce sync.Once
}

// hubConn is the hub's end of one worker's session. The session's mu guards
// everything except doneCounted, which h.mu guards (the done count and the
// per-conn flag must change atomically together). Lock order: h.mu may be
// taken before hc.mu, never the reverse.
type hubConn struct {
	session
	h    *Hub
	rank int

	// resumeMu serializes resume attempts for this rank: two racing redials
	// must not both swap the connection.
	resumeMu sync.Mutex

	suspTimer *time.Timer // the grace window of the suspicion under way; nil between episodes
	// readerDown is closed when the route loop reading this connection
	// returns; a resume waits on it before reusing the wireReader.
	readerDown chan struct{}

	doneCounted bool // guarded by h.mu, not hc.mu
}

// newHubConn builds the hub's end of a rank's session on conn, whose hello
// rd has consumed.
func (h *Hub) newHubConn(rank int, conn net.Conn, rd *wireReader) *hubConn {
	hc := &hubConn{h: h, rank: rank, readerDown: make(chan struct{})}
	hc.init(conn, rd, hc)
	return hc
}

// broken suspects the rank when the hub has suspicion and the world has
// started, arming the grace timer once per episode so a failed resume
// attempt cannot extend the window. Any other break is the route loop's to
// settle (readerBroken).
func (hc *hubConn) broken(error) bool {
	if hc.h.opts.suspicion <= 0 || !hc.h.started.Load() {
		return false
	}
	if hc.suspTimer == nil {
		hc.suspTimer = time.AfterFunc(hc.h.opts.suspicion, func() { hc.h.suspicionExpired(hc) })
	}
	return true
}

func (hc *hubConn) resumed(conn net.Conn) {
	hc.readerDown = make(chan struct{})
	go hc.h.route(hc, conn, hc.readerDown)
}

func (hc *hubConn) retired() {
	if hc.suspTimer != nil {
		hc.suspTimer.Stop()
	}
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
		ln:         ln,
		np:         np,
		opts:       ho,
		conns:      make(map[int]*hubConn),
		agreements: make(agreements),
		finished:   make(chan struct{}),
		startDone:  make(chan struct{}),
	}
	h.m.final = ho.formation <= 0 // Supervise sets it from its relaunch budget
	if ho.formation > 0 {
		// Assign under the lock: the timer callback (and the shutdown path
		// it triggers) reads formTimer from other goroutines.
		h.mu.Lock()
		h.formTimer = time.AfterFunc(ho.formation, h.formationExpired)
		h.mu.Unlock()
	}
	if hubTestHook != nil {
		hubTestHook(h)
	}
	go h.acceptLoop()
	return h, nil
}

var hubTestHook func(*Hub) // set by a test that watches a hub's agreements

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
	if hi.Wire != wireVersion {
		h.refuse(conn, fmt.Errorf("mpi: hub: rank %d announced wire version %d, this hub speaks version %d only",
			hi.Rank, hi.Wire, wireVersion))
		return
	}
	if hi.Resume {
		h.resumeWorker(conn, hi)
		return
	}
	if hi.Rejoin {
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
	epoch := h.m.epoch
	var all []*hubConn
	if complete {
		h.complete = true
		if h.formTimer != nil {
			h.formTimer.Stop()
		}
		all = h.peersLocked(-1, false)
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
			if err := c.sendFrame(frame{Tag: tagStart, Data: data}); err != nil {
				h.fail(fmt.Errorf("mpi: hub start signal: %w", err))
				return
			}
			if h.opts.startWritten != nil {
				h.opts.startWritten(h, c != hc)
			}
		}
		// started before the route loops are released: a frame they then
		// find broken is a suspicion, not a failure.
		h.started.Store(true)
		close(h.startDone)
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

// resumeWorker handles a session-resume dial: validate, park the old reader,
// check the worker's acknowledged sequence against the replay buffer, send
// the verdict, and move the session onto the new connection.
func (h *Hub) resumeWorker(conn net.Conn, hi hello) {
	refuse := func() {
		_ = writeVerdict(conn, false, 0) // closed next either way
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
	if hc.state == sessDead {
		hc.mu.Unlock()
		refuse()
		return
	}
	if hc.state == sessActive {
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
	if hc.state == sessDead {
		hc.mu.Unlock()
		refuse()
		return
	}
	tail, ok := hc.send.pending(hi.Ack)
	if !ok {
		// The worker is missing a frame that was never captured (a streamed
		// large frame or an evicted one), or claims one never sent: the
		// session is honestly lost, and the rank fails now rather than at
		// the end of its grace window.
		hc.retireLocked(errHubConnDead)
		hc.mu.Unlock()
		refuse()
		h.rankLost(hc, "hub session lost (resume impossible)",
			fmt.Errorf("mpi: hub: session to rank %d lost (no resume from sequence %d)", hc.rank, hi.Ack))
		return
	}
	if err := writeVerdict(conn, true, hc.recv.seqIn); err != nil {
		hc.mu.Unlock()
		conn.Close()
		return // still suspended; the worker (or the timer) decides next
	}
	if hc.resumeLocked(conn, tail) != nil {
		// Parked again on the original grace timer: a dead worker is still
		// promoted to failed on schedule while a live one retries.
		hc.mu.Unlock()
		return
	}
	if hc.suspTimer != nil {
		hc.suspTimer.Stop()
		hc.suspTimer = nil
	}
	hc.mu.Unlock()

	h.mu.Lock()
	if h.lastPong != nil {
		h.lastPong[hi.Rank] = time.Now()
	}
	h.mu.Unlock()
}

// respawnWorker re-admits a relaunched process into its old slot: the dead
// incarnation's connection is retired, the rank rejoins the membership at a
// new epoch (which drops the agreements of the old one), survivors learn of
// the rejoin, and the newcomer gets a start signal carrying the epoch and
// the remaining failed set.
func (h *Hub) respawnWorker(conn net.Conn, hi hello, rd *wireReader) {
	select {
	case <-h.finished:
		conn.Close()
		return
	default:
	}
	h.mu.Lock()
	ready, final := h.opts.recovery && h.complete, h.m.final
	old := h.conns[hi.Rank]
	h.mu.Unlock()
	if !ready {
		h.fail(fmt.Errorf("mpi: hub: rank %d attempted respawn before the world formed (or without HubRecovery)", hi.Rank))
		conn.Close()
		return
	}
	if final {
		conn.Close() // nothing relaunches through this hub: refused, as for a gone rank
		return
	}
	if old != nil {
		old.mu.Lock()
		old.retireLocked(errHubConnDead)
		old.conn.Close()
		old.mu.Unlock()
	}
	hc := h.newHubConn(hi.Rank, conn, rd)

	h.mu.Lock()
	if h.m.gone.has(hi.Rank) {
		// Given up for good: the survivors have shrunk past the rank.
		h.mu.Unlock()
		conn.Close()
		return
	}
	// Record the failure if nothing else has yet: a kill-and-relaunch can
	// land the new dial before the old connection's death is observed, and
	// the survivors must see fail-then-rejoin in that order.
	failedAt := h.m.epoch
	announce := h.m.fail(hi.Rank, failedAt)
	// Done-accounting: the slot must be counted exactly once when the world
	// finally winds down. If the dead incarnation was already counted done,
	// take that count back (the new incarnation will report its own); if it
	// was not, mark it counted so its pending teardown becomes a no-op.
	if old != nil && !old.doneCounted {
		old.doneCounted = true
	} else if h.done > 0 {
		h.done--
	}
	h.m.rejoin(hi.Rank, failedAt+1)
	h.agreements.dropOlder(h.m.epoch, nil)
	epoch := h.m.epoch
	h.conns[hi.Rank] = hc
	if h.lastPong != nil {
		h.lastPong[hi.Rank] = time.Now()
	}
	// Encoded under the lock: the membership's sets change in place.
	data, err := encodeValue(startInfo{SuspicionNs: int64(h.opts.suspicion), Epoch: epoch, Failed: h.m.failed, Gone: h.m.gone})
	others := h.peersLocked(hi.Rank, true)
	h.mu.Unlock()

	if announce {
		sendValue(others, tagFailed, abortInfo{Rank: hi.Rank, Msg: "rank replaced by respawn", Epoch: failedAt})
	}
	sendValue(others, tagRejoin, rejoinInfo{Rank: hi.Rank, Epoch: epoch})
	if err != nil {
		h.fail(fmt.Errorf("mpi: hub respawn start signal: %w", err))
		return
	}
	// A failed write here is absorbed by the session machinery (or surfaces
	// as this incarnation's own prompt death through the route loop below).
	_ = hc.sendFrame(frame{Tag: tagStart, Data: data})
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
			skip := c.state != sessActive
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
					c.conn.Close()
					c.mu.Unlock()
				}
				continue
			}
			h.fail(fmt.Errorf("mpi: hub: ranks %v unresponsive (no heartbeat within %s); world revoked", stale, 3*iv))
			return
		}
		sendAll(conns, frame{Tag: tagPing})
	}
}

// route forwards every frame read from one worker connection until the
// worker reports done or the connection breaks. Frames are dup-suppressed
// and acknowledged through the session; payloads are forwarded as they
// arrived. down is closed on return so a resume can safely reuse the
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
		if hc.state == sessDead || hc.conn != conn {
			// The session moved on (resume swapped the connection, or the
			// rank was retired) while this frame was in flight.
			hc.mu.Unlock()
			f.release()
			return
		}
		fresh, err := hc.acceptLocked(seq)
		hc.mu.Unlock()
		if !fresh {
			f.release()
			if err != nil {
				h.readerBroken(hc, conn, err)
				return
			}
			continue
		}
		if f.Dst == ctrlDst {
			switch f.Tag {
			case tagDone:
				// The worker sends nothing after done. Acknowledge everything
				// received first — the worker's drain holds its transport open
				// until the replay buffer clears — then retire the session so
				// its connection teardown is not mistaken for a failure.
				hc.mu.Lock()
				if hc.state == sessActive && hc.conn == conn {
					_ = hc.w.writeAck(hc.recv.seqIn)
				}
				hc.retireLocked(errHubConnDead)
				hc.mu.Unlock()
				h.workerDoneConn(hc)
				return
			case tagAbort:
				h.rankAborted(hc.rank, f.Data)
			case tagFailed:
				var info abortInfo
				if decodeValue(f.Data, &info) != nil {
					info.Msg = "rank failed (undecodable failure report)"
				}
				h.rankFailed(hc, info.Msg)
			case tagAgreeReq:
				h.agreeRequest(f.Data)
			case tagRevoke:
				h.broadcastRevoke(hc.rank, f)
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
		err = dst.sendFrame(f)
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

// readerBroken handles a route loop's read error, or a frame it cannot
// believe: suspend the session when it can resume, otherwise retire the rank
// (recovery) or fail the world.
func (h *Hub) readerBroken(hc *hubConn, conn net.Conn, err error) {
	hc.mu.Lock()
	if hc.state == sessDead || hc.conn != conn || hc.brokenLocked(err) == nil {
		// Parked for a resume, or a stale error from a connection a resume
		// already replaced.
		hc.mu.Unlock()
		return
	}
	hc.retireLocked(errHubConnDead)
	hc.mu.Unlock()
	h.rankLost(hc, "connection to hub lost", fmt.Errorf("mpi: hub: connection to rank %d: %w", hc.rank, err))
}

// suspicionExpired fires when a suspected rank's grace window elapses
// without a successful resume: the suspicion is promoted to failure.
func (h *Hub) suspicionExpired(hc *hubConn) {
	hc.mu.Lock()
	if hc.state != sessParked {
		hc.mu.Unlock()
		return
	}
	hc.retireLocked(errHubConnDead)
	hc.mu.Unlock()
	h.rankLost(hc, "connection to hub lost (suspicion window expired)",
		fmt.Errorf("mpi: hub: rank %d did not reconnect within %s; world revoked", hc.rank, h.opts.suspicion))
}

// rankLost settles a rank whose retired session ended without its done. A
// recovery hub whose world has formed records the failure (msg is what the
// survivors read) and counts the slot done, so the world still winds down;
// any other hub fails the world with err.
func (h *Hub) rankLost(hc *hubConn, msg string, err error) {
	h.mu.Lock()
	absorb := h.opts.recovery && h.complete
	h.mu.Unlock()
	if !absorb {
		h.fail(err)
		return
	}
	h.rankFailed(hc, msg)
	h.workerDoneConn(hc)
}

// workerDoneConn counts one connection's slot as finished, exactly once per
// incarnation; when the last slot reports, the hub shuts the world down. A
// live rank that reports done has returned from main: it departs, and the
// agreements waiting on it settle without it. (A lost or failed rank is
// already failed, and an incarnation a respawn replaced no longer holds the
// slot.)
func (h *Hub) workerDoneConn(hc *hubConn) {
	h.mu.Lock()
	if hc.doneCounted {
		h.mu.Unlock()
		return
	}
	hc.doneCounted = true
	h.done++
	last := h.done == h.np
	var decided []hubDecision
	if h.conns[hc.rank] == hc && h.m.depart(hc.rank) {
		decided = h.settleLocked()
	}
	h.mu.Unlock()
	sendDecisions(decided)
	if last {
		h.shutdown()
	}
}

// rankFailed records hc's incarnation failed at the current epoch, announces
// it to the survivors (who interrupt their pending operations), and settles
// the agreements that were waiting on it. A report from an incarnation a
// respawn has replaced changes nothing. Where no relaunch can come
// (membership.final) the one notice says gone too; otherwise the formation
// budget (if any) is how long the rank has to be re-admitted, as when a
// relaunched process never dials back.
func (h *Hub) rankFailed(hc *hubConn, msg string) {
	h.mu.Lock()
	epoch := h.m.epoch
	if !h.opts.recovery || h.conns[hc.rank] != hc || !h.m.fail(hc.rank, epoch) {
		h.mu.Unlock()
		return
	}
	gone := h.m.gone.has(hc.rank)
	h.announceLocked(abortInfo{Rank: hc.rank, Msg: msg, Epoch: epoch, Gone: gone})
	if !gone && h.opts.formation > 0 {
		time.AfterFunc(h.opts.formation, func() { h.rankGone(hc.rank, epoch) })
	}
}

// rankGone marks a rank failed at epoch since gone for good unless it was
// re-admitted after that (DESIGN.md §5). since < 0 is the supervisor giving
// up, possibly ahead of the last incarnation's own report: fail it if need
// be, and the one notice says both.
func (h *Hub) rankGone(rank, since int) {
	if !h.opts.recovery {
		return
	}
	h.mu.Lock()
	failed := false
	if since < 0 {
		since = h.m.epoch
		failed = h.m.fail(rank, since)
	}
	abandoned := h.m.rejoined[rank] <= since && h.m.abandon(rank)
	if !failed && !abandoned {
		h.mu.Unlock()
		return
	}
	h.announceLocked(abortInfo{Rank: rank, Msg: "rank will not come back", Epoch: h.m.epoch, Gone: true})
}

// announceLocked sends a membership change to the live ranks but the one it
// names and settles the agreements it lets decide. Called with h.mu held,
// which it releases.
func (h *Hub) announceLocked(info abortInfo) {
	others := h.peersLocked(info.Rank, true)
	decided := h.settleLocked()
	h.mu.Unlock()
	sendValue(others, tagFailed, info)
	sendDecisions(decided)
}

// agreeRequest folds one worker's agreement contribution in and settles. A
// contribution from an older epoch opens nothing: the worker entered before
// a rejoin it has not applied yet, and the rejoin notice on its way fails
// its wait, so it retries at the new epoch.
func (h *Hub) agreeRequest(payload []byte) {
	var req agreeReq
	if err := decodeValue(payload, &req); err != nil {
		h.fail(fmt.Errorf("mpi: hub: undecodable agreement request: %w", err))
		return
	}
	key := agreeKey{ctxKey: ctxKey{req.Ctx, slices.Min(req.Members)}, seq: req.Seq, epoch: req.Epoch}
	h.mu.Lock()
	var decided []hubDecision
	if key.epoch >= h.m.epoch {
		h.agreements.open(key, req.Members).arrived[req.Rank] = req.Mask
		decided = h.settleLocked()
	}
	h.mu.Unlock()
	sendDecisions(decided)
}

// hubDecision is one decided instance and the contributors to send it to.
type hubDecision struct {
	conns []*hubConn
	resp  agreeResp
}

// settleLocked decides every instance the membership now lets decide; the
// decision goes to every live contributor. Caller holds h.mu.
func (h *Hub) settleLocked() []hubDecision {
	var out []hubDecision
	h.agreements.settle(&h.m, func(key agreeKey, inst *agreeInst, mask rankSet, ctx int64) {
		var conns []*hubConn
		for r := range inst.arrived {
			if c := h.conns[r]; c != nil && !h.m.failed.has(r) {
				conns = append(conns, c)
			}
		}
		out = append(out, hubDecision{conns: conns, resp: agreeResp{
			Ctx: key.ctx, Lead: key.lead, Seq: key.seq, Epoch: key.epoch, Mask: mask,
			Departed: mask.and(h.m.departed), Gone: mask.and(h.m.gone), NewCtx: ctx,
		}})
	})
	return out
}

func sendDecisions(ds []hubDecision) {
	for _, d := range ds {
		sendValue(d.conns, tagAgreeResp, d.resp)
	}
}

// broadcastRevoke fans one worker's revoke frame out to its peers.
func (h *Hub) broadcastRevoke(origin int, f frame) {
	h.mu.Lock()
	others := h.peersLocked(origin, true)
	h.mu.Unlock()
	sendAll(others, frame{Tag: tagRevoke, Ctx: f.Ctx, Src: f.Src})
}

// FailedRanks reports the world ranks that failed recoverably, sorted. A
// recovered run has Wait() == nil and a non-empty FailedRanks. Ranks that
// failed but were later respawned into their slots are not included.
func (h *Hub) FailedRanks() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m.failed.list()
}

// Supervise runs the hub's np ranks, one goroutine each, and returns each
// rank's last error once all have ended. run starts one incarnation of a
// rank and waits for it to end: JoinTCP or JoinShm for the first, RejoinTCP
// when rejoin is set (a process launcher starts the process and waits for it
// to exit). respawn states the launcher's relaunch budget: three per rank
// (WithRespawn on the workers) or none. Once a rank's budget is spent the
// hub marks it gone for good at once, at its failure when there is none, so
// the survivors' Recover shrinks without it. It is the relaunch policy
// RunTCP and RunShm use, and Run's over its in-process ranks.
func (h *Hub) Supervise(respawn bool, run func(rank int, rejoin bool) error) []error {
	budget := 0
	if respawn {
		budget = maxRespawnsPerRank
	}
	h.mu.Lock()
	h.m.final = budget == 0
	h.mu.Unlock()
	live := func() bool {
		select {
		case <-h.finished:
			return false
		default:
			return true
		}
	}
	return supervise(h.np, budget, live, func(rank int) { h.rankGone(rank, -1) }, run)
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
	others := h.peersLocked(origin, false)
	h.mu.Unlock()
	sendAll(others, frame{Tag: tagAbort, Data: payload})
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
	conns := h.peersLocked(-1, false)
	h.mu.Unlock()
	if alreadyFinished {
		return
	}
	if data, encErr := encodeValue(abortInfo{Rank: -1, Msg: err.Error()}); encErr == nil {
		sendAll(conns, frame{Tag: tagAbort, Data: data})
	}
	h.shutdown()
}

// peersLocked lists the connections of every rank but except (-1: none),
// leaving out the failed ranks when live. Caller holds h.mu.
func (h *Hub) peersLocked(except int, live bool) []*hubConn {
	out := make([]*hubConn, 0, len(h.conns))
	for r, c := range h.conns {
		if r != except && !(live && h.m.failed.has(r)) {
			out = append(out, c)
		}
	}
	return out
}

// sendAll sends the control frame f to each of conns. A connection that
// cannot take it is settled by its own route loop or grace timer.
func sendAll(conns []*hubConn, f frame) {
	for _, c := range conns {
		_ = c.sendFrame(f)
	}
}

// sendValue sends v, gob-encoded, under the control tag to each of conns.
func sendValue(conns []*hubConn, tag int, v any) {
	if data, err := encodeValue(v); err == nil {
		sendAll(conns, frame{Tag: tag, Data: data})
	}
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
		c.retireLocked(errHubConnDead)
		c.conn.Close()
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
