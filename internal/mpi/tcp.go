package mpi

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// The worker's end of the TCP transport (the hub, and the protocol the two
// speak, are in hub.go): a rank's session with the hub, the redial that
// resumes it, and the launchers that join a world and run one.

// WithHubOptions forwards hub configuration (formation timeout, heartbeat,
// suspicion) to the hub RunTCP starts internally. Standalone hubs take the
// same options directly via StartHub; JoinTCP ignores this option.
func WithHubOptions(opts ...HubOption) Option {
	return func(c *config) { c.hubOpts = append(c.hubOpts, opts...) }
}

// tcpTransport is one rank's end of the TCP world: its session with the hub,
// which a broken connection redials and resumes instead of killing the rank.
// The session's mu guards all mutable state but the read lease (lease.go),
// which says who reads the connection; cond wakes the reader (parked during
// reconnects) and anyone waiting for the reader to park.
type tcpTransport struct {
	session
	addr string
	rank int

	// What the reader dispatches to (serve), and the fallback reader's exit.
	world    *World
	box      *mailbox
	lease    readLease
	fallback sync.WaitGroup
	claimed  *waiter // the lease holder's: the receive the frame being read is landing in (rd.land)

	grace      time.Duration // suspicion window learned from the start frame
	gen        int           // connection generation; stale errors are discarded by it
	readerBusy bool          // the lease holder is parked on, or reading from, conn without the lock
	closing    bool          // drain started: the rank is done and tearing down
}

func newTCPTransport(addr string, rank int, conn net.Conn) *tcpTransport {
	t := &tcpTransport{
		addr:  addr,
		rank:  rank,
		lease: readLease{quiet: leaseQuiet, nudge: make(chan struct{}, 1)},
	}
	t.init(conn, newWireReader(conn), t)
	t.rd.land = func(f frame, n int) (into []byte) {
		t.claimed, into = t.box.claim(&f, n)
		return into
	}
	return t
}

// broken moves the transport into reconnection when the hub granted a grace
// window: receives stop reading and the fallback is called to wait the
// redial out (the hub retransmits the moment it resumes), and the generation
// advances so the broken connection's pending read error is discarded. It is
// not worth resuming once the rank is done and its tail is acknowledged: the
// hub retiring the session closes the connection, and that EOF is teardown.
// Without a resume the transport is over.
func (t *tcpTransport) broken(cause error) bool {
	if t.grace <= 0 || t.closing && len(t.send.replay) == 0 {
		t.retireLocked(cause)
		return false
	}
	t.lease.connDown(false)
	t.gen++
	go t.reconnect(cause)
	return true
}

func (t *tcpTransport) resumed(net.Conn) {
	t.gen++
	t.lease.connUp()
}

func (t *tcpTransport) retired() {
	t.lease.connDown(true)
	t.gen++
	t.conn.Close()
}

// Send puts one outbound frame on the session (session.sendFrame); a break
// with a grace window moves the transport into reconnection. transmit
// serializes typed payloads on the spot, so frame.Val is fully consumed by
// the time Send returns (the borrow rule, frame.borrowed).
func (t *tcpTransport) Send(f frame) error { return t.sendFrame(f) }

// recvFrame reads the next frame from the hub, for the holder of the read
// lease. The fallback reader (wake nil) rides out reconnections: while the
// transport is redialing it parks on the condition variable. A blocked
// receive (wake its waiter's wake-up slot) waits for the frame's first byte
// interruptibly and returns errReadInterrupted, with nothing consumed, when a
// wake-up comes first or the connection is being redialed. Read errors from
// torn-down connections are discarded by the generation counter. Frames are
// dup-suppressed and acknowledged through the session.
//
// A streamed frame whose payload was read straight into the receive posted
// for it (rd.land) is returned with that receive, still claimed, for dispatch
// to complete. If the frame is not returned — the read or its CRC failed, a
// reconnect replaced the connection under it, the session had seen it — the
// receive goes back to the mailbox and the frame is lost as any other is.
func (t *tcpTransport) recvFrame(wake <-chan struct{}) (frame, *waiter, error) {
	for {
		t.mu.Lock()
		for t.state == sessParked {
			if wake != nil {
				t.mu.Unlock()
				return frame{}, nil, errReadInterrupted
			}
			t.cond.Wait()
		}
		if t.state == sessDead {
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
		t.claimed = nil

		fresh := false
		t.mu.Lock()
		t.readerBusy = false
		t.cond.Broadcast()
		if err == nil && t.gen == gen {
			// A frame from a connection a reconnect already replaced is
			// dropped: resume retransmission delivers it again in order.
			fresh, err = t.acceptLocked(seq)
		}
		if fresh || err == errReadInterrupted {
			t.mu.Unlock()
			return f, claimed, err
		}
		t.mu.Unlock()
		// Not delivered: the receive its payload was read into goes back to
		// the mailbox, whose lock comes before t.mu.
		f.release()
		if claimed != nil {
			t.box.unclaim(claimed)
		}
		if err == nil {
			continue // a duplicate, or a frame from a replaced connection
		}
		t.mu.Lock()
		if t.gen != gen {
			err = nil // the error belongs to a torn-down connection
		} else {
			err = t.brokenLocked(err) // nil once parked for a resume
		}
		t.mu.Unlock()
		if err != nil {
			return frame{}, nil, err
		}
	}
}

// reconnect redials the hub until the grace window closes, then performs
// the resume handshake: a fresh-encoder hello{Resume, Ack} (the persistent
// session encoders stay untouched), the hub's verdict carrying its
// acknowledged sequence, and the session's resume onto the new connection.
func (t *tcpTransport) reconnect(cause error) {
	deadline := time.Now().Add(t.grace)
	backoff := 2 * time.Millisecond
	for {
		t.mu.Lock()
		if t.state != sessParked {
			t.mu.Unlock()
			return
		}
		ack := t.recv.seqIn
		t.mu.Unlock()
		if time.Now().After(deadline) {
			t.mu.Lock()
			t.retireLocked(fmt.Errorf("%w: grace window (%s) expired: %v", ErrSessionLost, t.grace, cause))
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
		// A fresh one-shot encoder for the resume hello: the hub reads it
		// with a fresh decoder, so the session's persistent gob streams —
		// which must survive the swap byte-exact — are never touched.
		if err := gob.NewEncoder(conn).Encode(hello{Rank: t.rank, Wire: wireVersion2, Resume: true, Ack: ack}); err != nil {
			conn.Close()
			time.Sleep(backoff)
			continue
		}
		ok, hubAck, err := readVerdict(conn)
		if err != nil {
			conn.Close()
			time.Sleep(backoff)
			continue
		}
		if !ok {
			conn.Close()
			t.mu.Lock()
			t.retireLocked(fmt.Errorf("%w: hub refused the resume", ErrSessionLost))
			t.mu.Unlock()
			return
		}

		t.mu.Lock()
		for t.readerBusy && t.state == sessParked {
			t.cond.Wait()
		}
		if t.state != sessParked {
			t.mu.Unlock()
			conn.Close()
			return
		}
		tail, ok := t.send.pending(hubAck)
		if !ok {
			conn.Close()
			t.retireLocked(fmt.Errorf("%w: no resume from the hub's acknowledged sequence %d", ErrSessionLost, hubAck))
			t.mu.Unlock()
			return
		}
		// A reader re-acquires the lock only between frames, so the tail
		// goes out contiguously before any new Send interleaves; a broken
		// retransmission goes around again (the hub stays on its timer).
		_ = t.resumeLocked(conn, tail)
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
	if t.state == sessActive {
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
	if t.state == sessDead {
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
	for !timedOut && t.state != sessDead &&
		(t.state == sessParked || len(t.send.replay) > 0) {
		t.cond.Wait()
	}
}

// Close retires the transport and returns once the fallback reader has left.
func (t *tcpTransport) Close() error {
	t.mu.Lock()
	t.retireLocked(errors.New("mpi: tcp transport closed"))
	t.mu.Unlock()
	t.fallback.Wait()
	return nil
}

// dialRetry is JoinTCP's dial budget: long enough to ride out a hub that is
// still binding its listener, short enough that a dead address fails the
// worker promptly.
const dialRetry = 3 * time.Second

// dialHub dials addr, retrying failed dials with exponential backoff and
// jitter until dialRetry elapses — so launching workers before the hub is a
// race the runtime absorbs instead of a crash.
func dialHub(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err == nil {
		return conn, nil
	}
	deadline := time.Now().Add(dialRetry)
	backoff := 5 * time.Millisecond
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("mpi: joining hub %s (retried for %s): %w", addr, dialRetry, err)
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
// membership-changed error, which routes it into the program's Recover +
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

	conn, err := dialHub(addr)
	if err != nil {
		return err
	}
	t := newTCPTransport(addr, rank, conn)
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

	boxes := make([]*mailbox, np)
	boxes[rank] = box
	w := cfg.newWorld(np, data, boxes)
	if w.recov != nil {
		// Control frames bypass the decorated transport: a fault plan that
		// killed this rank must not also sever its recovery reporting.
		w.recov.ctrlSend = t.Send
		// A respawned worker starts life already in the hub's membership
		// epoch, carrying the hub's view of the still-failed ranks: its very
		// first operation on the stale world communicator must be interrupted
		// into the restore path.
		w.recov.seedEpoch(si.Epoch, si.FailedMask, si.GoneMask)
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
		w.rankFailed(rank, -1, runErr)
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
				if err != nil && !errors.Is(err, ErrWorldAborted) {
					hub.rankGone(rank, -1) // the relaunches are spent
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
