package mpi

import (
	"errors"
	"fmt"
	"time"
)

// Resilient TCP sessions. A TCP connection is a *session*: every frame a
// side sends carries a monotonically increasing sequence number, the receiver
// periodically acknowledges the highest sequence it has accepted, and the
// sender keeps the encoded bytes of every unacknowledged frame in a bounded
// replay buffer. When the connection underneath breaks — a NAT timeout, a
// flaky home network, an injected FaultDisconnect — the worker redials the
// hub within the suspicion grace window (HubSuspicion) and both sides resume
// from the peer's acknowledged sequence, retransmitting the tail. A transient
// disconnect is therefore invisible to the program; only grace-window expiry
// (or a replay gap, see below) promotes a suspected rank to failed.
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

// sendSession is the sending half of a session: sequence assignment plus the
// replay buffer. The owner (hubConn or tcpTransport) serializes access.
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
		if len(s.spare) < ackEvery && cap(b) <= v2RawPrefixLen+replayFrameMax {
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
// frames to retransmit, oldest first. It reports false when a gap makes the
// resume impossible (the peer is missing a frame that was never captured).
func (s *sendSession) pending(peerAck uint64) ([]replayEntry, bool) {
	if peerAck < s.gapSeq {
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

// note folds one received sequence in. dup means the frame was already
// delivered before the resume and must be discarded; ackNow means the
// receiver should send a cumulative ack.
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
