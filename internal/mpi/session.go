package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Resilient TCP sessions. A TCP connection is a *session*: every frame a
// side sends carries a sequence number one above the last, the receiver
// periodically acknowledges the highest sequence it has accepted, and the
// sender keeps the encoded bytes of every unacknowledged frame in a bounded
// replay buffer. When the connection underneath breaks — a NAT timeout, a
// flaky home network, an injected FaultDisconnect — the worker redials the
// hub within the suspicion grace window (HubSuspicion) and both sides resume
// from the peer's acknowledged sequence, retransmitting the tail. A transient
// disconnect is therefore invisible to the program; only grace-window expiry
// (or a replay gap, see below) promotes a suspected rank to failed.
//
// Numbers from the wire are checked before they are believed: a frame must
// carry the sequence after the last one accepted (or an earlier one, a
// duplicate a retransmitted tail overlaps), and an ack must not pass the last
// sequence sent. Anything else — a frame lost, a number damaged where no CRC
// covers it — breaks the connection like a failed read, so a resumable
// session heals it by retransmission and any other surfaces it as an error.
//
// The replay buffer is bounded two ways. Frames larger than replayFrameMax
// are streamed to the wire without being captured (capturing a 1 MiB payload
// would put a memcpy on the large-message fast path); their sequence numbers
// become *gaps*. And the total captured bytes are capped at replayMaxBytes,
// evicting oldest-first into gaps when exceeded. A resume is only possible if
// the peer has acknowledged past the newest gap — otherwise the session is
// honestly unrecoverable and the rank fails with ErrSessionLost. Receivers
// ack every ackEvery frames, which keeps the buffer shallow in practice.

const (
	// replayFrameMax is the largest frame captured for replay on the live
	// path. Larger raw frames stream straight from the caller's buffer
	// (keeping the zero-copy large-message path) and become replay gaps.
	replayFrameMax = 64 << 10

	// replayMaxBytes bounds the total captured-but-unacknowledged bytes per
	// connection direction; beyond it the oldest frames are evicted to gaps.
	replayMaxBytes = 8 << 20

	// ackEvery is the receiver's ack cadence, in accepted frames.
	ackEvery = 32

	// resumeDrainWindow bounds how long a resume waits for the old
	// connection's reader to drain frames the kernel already accepted —
	// streamed large frames live nowhere else, so closing the socket
	// before the drain would lose them for good. It must stay well under
	// the worker's resume-reply deadline (resumeReplyTimeout).
	resumeDrainWindow = time.Second

	// resumeReplyTimeout is how long a redialing worker waits for the
	// hub's 9-byte resume verdict before closing the attempt and retrying
	// within the grace window. It covers the hub's resumeDrainWindow with
	// slack: the hub may drain the old connection before replying.
	resumeReplyTimeout = 2 * time.Second
)

// ErrSessionLost reports that a broken hub connection could not be resumed:
// the grace window expired, the hub refused the resume, or the replay buffer
// had a gap before the peer's acknowledged sequence.
var ErrSessionLost = errors.New("mpi: hub session lost (resume failed)")

// CorruptFrameError reports a frame whose payload failed its CRC32C check: a
// bit flipped in flight (or an injected FaultCorrupt). On a resumable session
// the error is internal — the connection is torn down and the clean copy is
// retransmitted from the sender's replay buffer — and it surfaces to the
// program only when the session cannot be resumed.
type CorruptFrameError struct {
	Seq      uint64
	Src, Dst int
	Tag      int
	Want     uint32 // CRC carried by the frame
	Got      uint32 // CRC computed over the received bytes
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("mpi: corrupt frame on the wire (seq %d, %d->%d tag %d): crc32c %08x, want %08x",
		e.Seq, e.Src, e.Dst, e.Tag, e.Got, e.Want)
}

// replayEntry is one captured frame: its sequence number and its complete
// encoded wire bytes (kind byte, sequence, header, CRC, payload), held in a
// pooled buffer owned by the session until the peer acks past seq.
type replayEntry struct {
	seq uint64
	buf []byte
}

// Session states, the same three at both ends.
const (
	sessActive = iota // connection up, frames flowing
	sessParked        // connection down, a resume pending: frames park in the replay buffer
	sessDead          // over for good: nothing is sent again
)

// session is one end of a resumable connection, the same code at the hub
// (hubConn) and at a rank (tcpTransport): the connection, its framing layers,
// both halves of the sequence bookkeeping and the state. mu guards it all,
// cond is broadcast when the state changes or the replay buffer empties, and
// end is the policy the owner does not share with the other end.
type session struct {
	mu      sync.Mutex
	cond    sync.Cond
	conn    net.Conn
	w       *wireWriter
	rd      *wireReader
	send    sendSession
	recv    recvSession
	state   int
	deadErr error // why the session died
	end     sessionEnd
}

// sessionEnd is what tells a session's two ends apart: the hub arms a grace
// timer and starts a route loop, a rank redials and wakes its reader. Each
// method runs with the session's mu held.
type sessionEnd interface {
	// broken is told that the connection under the active session broke
	// with cause. It arms a resume and reports true, or reports false: the
	// break is then the caller's error, and the session is left as it is
	// (the hub's route loop settles the rank) or retired (a rank's).
	broken(cause error) bool
	// resumed starts reading conn, just swapped in, before the tail is
	// retransmitted: the peer is retransmitting its own at the same time, and
	// draining it keeps the kernel buffers from filling in both directions.
	resumed(conn net.Conn)
	// retired lets go of what the end holds for a session that is over.
	retired()
}

// init starts the session on conn, read through rd (the hub's has consumed
// the hello already).
func (s *session) init(conn net.Conn, rd *wireReader, end sessionEnd) {
	s.conn, s.w, s.rd, s.end = conn, newWireWriter(conn), rd, end
	s.cond.L = &s.mu
	s.w.sess = &s.send
	rd.onAck = s.acked
}

// sendFrame puts one outbound frame on the session: sequenced and captured
// for replay, or parked while the connection is down (wireWriter.transmit).
// A write error parks the session when its end can resume it — the frame is
// safe in the replay buffer — and is returned otherwise.
func (s *session) sendFrame(f frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == sessDead {
		return fmt.Errorf("mpi: tcp send: %w", s.deadErr)
	}
	werr, err := s.w.transmit(f, s.state == sessParked)
	if werr != nil && s.brokenLocked(werr) != nil {
		return fmt.Errorf("mpi: tcp send: %w", werr)
	}
	return err
}

// acceptLocked folds in the sequence of a frame read from the connection in
// use and reports whether the frame is new; a duplicate is dropped. A
// sequence past the next one is an error: a frame went missing, or this
// number was damaged. Every ackEvery frames the session acknowledges, while
// the connection is up.
func (s *session) acceptLocked(seq uint64) (bool, error) {
	if seq > s.recv.seqIn+1 {
		return false, fmt.Errorf("mpi: frame sequence %d arrived after %d (a frame lost or a damaged number)", seq, s.recv.seqIn)
	}
	dup, ackNow := s.recv.note(seq)
	if ackNow && s.state == sessActive {
		_ = s.w.writeAck(s.recv.seqIn) // a lost ack only trims the peer's buffer later
	}
	return !dup, nil
}

// acked takes the peer's cumulative ack from the reading goroutine: the
// frames it covers leave the replay buffer. An ack past the last sequence
// sent is an error, not leave to drop frames the peer never had.
func (s *session) acked(ack uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ack > s.send.seqOut {
		return fmt.Errorf("mpi: peer acknowledged sequence %d, only %d sent", ack, s.send.seqOut)
	}
	s.send.trim(ack)
	if len(s.send.replay) == 0 {
		s.cond.Broadcast() // a drain may be waiting for the tail to clear
	}
	return nil
}

// brokenLocked handles the connection under an active session breaking
// with cause: the socket is closed, so both the local reader and the peer
// see the break promptly, and the session parks, if its end can resume it.
// Otherwise it returns cause (sessionEnd.broken).
func (s *session) brokenLocked(cause error) error {
	if s.state != sessActive {
		return nil
	}
	if !s.end.broken(cause) {
		return cause
	}
	s.state = sessParked
	s.conn.Close()
	return nil
}

// resumeLocked moves a parked session onto conn and retransmits tail, what
// the peer has not acknowledged (sendSession.pending). The buffered layers
// switch connections — every frame stands alone, so nothing else carries
// over — and the peer's retransmission is read while ours goes out. A broken retransmission breaks
// the new connection like any other write and is returned.
func (s *session) resumeLocked(conn net.Conn, tail []replayEntry) error {
	s.conn = conn
	s.w.resetConn(conn)
	s.rd.resetConn(conn)
	s.recv.sinceAck = 0
	s.state = sessActive
	s.end.resumed(conn)
	s.cond.Broadcast()
	var werr error
	for _, e := range tail {
		if werr = s.w.writeEncoded(e.buf); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = s.w.flush()
	}
	if werr != nil {
		s.brokenLocked(werr)
	}
	return werr
}

// retireLocked ends the session for good with cause: its replay buffer is
// released and nothing goes out on it again. Idempotent.
func (s *session) retireLocked(cause error) {
	if s.state == sessDead {
		return
	}
	s.state, s.deadErr = sessDead, cause
	s.send.drop()
	s.end.retired()
	s.cond.Broadcast()
}

// writeVerdict sends the hub's reply to a resume hello, 9 raw bytes outside
// the framed session (as the hello is): a status byte,
// 1 for accepted, and the hub's highest received sequence. A refusal is all
// zeros.
func writeVerdict(conn net.Conn, ok bool, seqIn uint64) error {
	var b [1 + seqLen]byte
	if ok {
		b[0] = 1
		le.PutUint64(b[1:], seqIn)
	}
	_, err := conn.Write(b[:])
	return err
}

// readVerdict waits up to resumeReplyTimeout for the hub's verdict.
func readVerdict(conn net.Conn) (ok bool, hubAck uint64, err error) {
	var b [1 + seqLen]byte
	_ = conn.SetReadDeadline(time.Now().Add(resumeReplyTimeout)) // a failure leaves ReadFull to report the connection
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return false, 0, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	return b[0] != 0, le.Uint64(b[1:]), nil
}

// sendSession is the sending half of a session: sequence assignment plus the
// replay buffer.
type sendSession struct {
	seqOut      uint64 // last sequence assigned
	gapSeq      uint64 // newest sequence NOT in the replay buffer (0 = none)
	replay      []replayEntry
	replayBytes int
	spare       [][]byte // buffers of trimmed frames, for the next captured ones: at most an ack window's
}

// frameBuf returns the length-n buffer a captured frame is rendered into: one
// an ack gave this session back, else the global list's. A free list shared
// by every session runs dry under their combined ack windows (four sessions
// of ackEvery frames a pair, 32 slots), and then each captured frame
// allocates. s may be nil: a writer with no session.
func (s *sendSession) frameBuf(n int) []byte {
	if s != nil && len(s.spare) > 0 {
		b := s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return getWireBuf(n)
}

func (s *sendSession) nextSeq() uint64 {
	s.seqOut++
	return s.seqOut
}

// record takes ownership of a captured frame's buffer, evicting oldest
// frames into gaps if the budget is exceeded.
func (s *sendSession) record(seq uint64, buf []byte) {
	s.replay = append(s.replay, replayEntry{seq: seq, buf: buf})
	s.replayBytes += len(buf)
	i := 0
	for ; s.replayBytes > replayMaxBytes && i < len(s.replay); i++ {
		e := s.replay[i]
		s.replayBytes -= len(e.buf)
		putWireBuf(e.buf)
		if e.seq > s.gapSeq {
			s.gapSeq = e.seq
		}
	}
	if i > 0 {
		n := copy(s.replay, s.replay[i:])
		s.replay = s.replay[:n]
	}
}

// gap marks a sequence as sent-but-not-captured (a streamed large frame).
func (s *sendSession) gap(seq uint64) {
	if seq > s.gapSeq {
		s.gapSeq = seq
	}
}

// trim releases every captured frame the peer has acknowledged; their
// buffers stay with the session for its next frames (frameBuf).
func (s *sendSession) trim(ack uint64) {
	i := 0
	for ; i < len(s.replay) && s.replay[i].seq <= ack; i++ {
		b := s.replay[i].buf
		s.replayBytes -= len(b)
		if len(s.spare) < ackEvery && cap(b) <= framePrefixLen+replayFrameMax {
			s.spare = append(s.spare, b)
		} else {
			putWireBuf(b)
		}
	}
	if i > 0 {
		n := copy(s.replay, s.replay[i:])
		s.replay = s.replay[:n]
	}
}

// pending trims through the peer's acknowledged sequence and returns the
// frames to retransmit, oldest first. It reports false when the resume is
// impossible: a gap (the peer is missing a frame that was never captured), or
// an ack past the last sequence sent.
func (s *sendSession) pending(peerAck uint64) ([]replayEntry, bool) {
	if peerAck < s.gapSeq || peerAck > s.seqOut {
		return nil, false
	}
	s.trim(peerAck)
	return s.replay, true
}

// drop releases the whole replay buffer; the session is over.
func (s *sendSession) drop() {
	for _, e := range s.replay {
		putWireBuf(e.buf)
	}
	s.replay, s.replayBytes, s.spare = nil, 0, nil
}

// recvSession is the receiving half: duplicate suppression (retransmitted
// tails overlap what already arrived) and the ack cadence.
type recvSession struct {
	seqIn    uint64 // highest sequence accepted
	sinceAck int
}

// note folds one received sequence in, at most one past seqIn (the caller,
// session.acceptLocked, checks). dup means the frame was already delivered
// before the resume and must be discarded; ackNow means the receiver should
// send a cumulative ack.
func (rs *recvSession) note(seq uint64) (dup, ackNow bool) {
	if seq <= rs.seqIn {
		return true, false
	}
	rs.seqIn = seq
	rs.sinceAck++
	if rs.sinceAck >= ackEvery {
		rs.sinceAck = 0
		return false, true
	}
	return false, false
}
