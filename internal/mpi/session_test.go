package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// Session-layer unit tests: sequence assignment, the bounded replay buffer
// (record/trim/pending/gap/evict), duplicate suppression and ack cadence on
// the receive side, and the CRC32C integrity check on the wire.

func sessionBuf(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestSessionReplayRecordTrimPending(t *testing.T) {
	var s sendSession
	for i := 1; i <= 5; i++ {
		seq := s.nextSeq()
		if seq != uint64(i) {
			t.Fatalf("nextSeq = %d, want %d", seq, i)
		}
		s.record(seq, sessionBuf(10, byte(i)))
	}
	if s.replayBytes != 50 {
		t.Fatalf("replayBytes = %d, want 50", s.replayBytes)
	}

	// Peer acked through 3: frames 1-3 are released, 4-5 retransmittable.
	pend, ok := s.pending(3)
	if !ok {
		t.Fatal("pending(3) reported an impossible resume on a gapless session")
	}
	if len(pend) != 2 || pend[0].seq != 4 || pend[1].seq != 5 {
		t.Fatalf("pending(3) = %+v, want seqs [4 5]", pend)
	}
	if s.replayBytes != 20 {
		t.Fatalf("replayBytes after trim = %d, want 20", s.replayBytes)
	}

	// trim is cumulative and idempotent past the end.
	s.trim(99)
	if len(s.replay) != 0 || s.replayBytes != 0 {
		t.Fatalf("trim(99) left %d frames / %d bytes", len(s.replay), s.replayBytes)
	}
}

func TestSessionReplayGapBlocksResume(t *testing.T) {
	var s sendSession
	s.record(s.nextSeq(), sessionBuf(8, 1)) // seq 1, captured
	s.record(s.nextSeq(), sessionBuf(8, 2)) // seq 2, captured
	s.gap(s.nextSeq())                      // seq 3: streamed large frame
	s.record(s.nextSeq(), sessionBuf(8, 4)) // seq 4, captured

	// Peer missing the uncaptured frame 3: resume is honestly impossible.
	if _, ok := s.pending(2); ok {
		t.Fatal("pending(2) allowed a resume across an uncaptured gap")
	}
	// Peer acked past the gap: only frame 4 needs retransmitting.
	pend, ok := s.pending(3)
	if !ok {
		t.Fatal("pending(3) refused although the gap is acknowledged")
	}
	if len(pend) != 1 || pend[0].seq != 4 {
		t.Fatalf("pending(3) = %+v, want seq [4]", pend)
	}
	s.drop()
	if s.replay != nil || s.replayBytes != 0 {
		t.Fatalf("drop left %d frames / %d bytes", len(s.replay), s.replayBytes)
	}
}

// TestSessionReplayEvictsOldestToGap: exceeding the byte budget evicts the
// oldest captured frames into gaps — the session stays bounded, and a resume
// is only possible if the peer has acked past everything evicted.
func TestSessionReplayEvictsOldestToGap(t *testing.T) {
	var s sendSession
	const frameSize = 1 << 20 // 1 MiB chunks fill the 8 MiB budget fast
	n := replayMaxBytes/frameSize + 3
	for i := 0; i < n; i++ {
		s.record(s.nextSeq(), sessionBuf(frameSize, byte(i)))
	}
	if s.replayBytes > replayMaxBytes {
		t.Fatalf("replayBytes = %d exceeds budget %d", s.replayBytes, replayMaxBytes)
	}
	if s.gapSeq == 0 {
		t.Fatal("eviction did not record a gap")
	}
	if _, ok := s.pending(s.gapSeq - 1); ok {
		t.Fatal("resume below the evicted frames must be refused")
	}
	pend, ok := s.pending(s.gapSeq)
	if !ok {
		t.Fatal("resume at the newest gap must be possible")
	}
	for _, e := range pend {
		if e.seq <= s.gapSeq {
			t.Fatalf("retained frame %d at or below gap %d", e.seq, s.gapSeq)
		}
	}
	s.drop()
}

func TestRecvSessionDupAndAckCadence(t *testing.T) {
	var rs recvSession
	acks := 0
	for i := 1; i <= 3*ackEvery; i++ {
		dup, ackNow := rs.note(uint64(i))
		if dup {
			t.Fatalf("fresh seq %d flagged duplicate", i)
		}
		if ackNow {
			acks++
		}
	}
	if acks != 3 {
		t.Fatalf("got %d acks over %d frames, want 3 (every %d)", acks, 3*ackEvery, ackEvery)
	}
	// A retransmitted tail overlaps what already arrived: every replayed
	// frame at or below seqIn must be suppressed.
	for i := uint64(1); i <= rs.seqIn; i += 7 {
		if dup, _ := rs.note(i); !dup {
			t.Fatalf("replayed seq %d not flagged duplicate", i)
		}
	}
	if dup, _ := rs.note(rs.seqIn + 1); dup {
		t.Fatal("first fresh frame after the replayed tail flagged duplicate")
	}
}

// byteConn is enough of a connection for a session's accept path: reads
// come from r, writes go nowhere.
type byteConn struct {
	net.Conn // nil: nothing else is called
	r        io.Reader
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (byteConn) Write(p []byte) (int, error)  { return len(p), nil }
func (byteConn) Close() error                 { return nil }

// inertEnd resumes nothing: every break is the caller's error.
type inertEnd struct{}

func (inertEnd) broken(error) bool { return false }
func (inertEnd) resumed(net.Conn)  {}
func (inertEnd) retired()          {}

// testSession is a session reading r that has sent sent frames.
func testSession(t testing.TB, r io.Reader, sent int) *session {
	s := new(session)
	c := byteConn{r: r}
	s.init(c, newWireReader(c), inertEnd{})
	for i := 0; i < sent; i++ {
		if werr, err := s.w.transmit(frame{Tag: tagPing}, false); werr != nil || err != nil {
			t.Fatal(werr, err)
		}
	}
	return s
}

// TestRecvSessionRejectsSkipsAndFutureAcks: a sequence is believed only when
// it is the next one (or a duplicate, dropped), and an ack only when it does
// not pass what was sent; a resume from such an ack is refused too.
func TestRecvSessionRejectsSkipsAndFutureAcks(t *testing.T) {
	s := testSession(t, nil, 2)
	for _, seq := range []uint64{1, 2} {
		if fresh, err := s.acceptLocked(seq); !fresh || err != nil {
			t.Fatalf("seq %d: fresh %v, %v", seq, fresh, err)
		}
	}
	if fresh, err := s.acceptLocked(4); fresh || err == nil || s.recv.seqIn != 2 {
		t.Fatalf("seq 4 after 2: fresh %v, %v, seqIn %d; want an error and seqIn 2", fresh, err, s.recv.seqIn)
	}
	if fresh, err := s.acceptLocked(2); fresh || err != nil {
		t.Fatalf("replayed seq 2: fresh %v, %v; want a dropped duplicate", fresh, err)
	}
	if err := s.acked(3); err == nil || len(s.send.replay) != 2 {
		t.Fatalf("ack 3 of 2 sent: %v, %d frames left; want an error and both frames kept", err, len(s.send.replay))
	}
	if _, ok := s.send.pending(1000); ok {
		t.Fatal("a resume from ack 1000 of 2 sent was allowed")
	}
	if tail, ok := s.send.pending(1); !ok || len(tail) != 1 || tail[0].seq != 2 {
		t.Fatalf("resume from ack 1: %v, %+v; want frame 2", ok, tail)
	}
}

// TestSessionUnencodableFrameTakesNoSequence: a payload gob refuses leaves no
// hole in the sequence, which the receiver would take for a lost frame.
func TestSessionUnencodableFrameTakesNoSequence(t *testing.T) {
	var conn bytes.Buffer
	w := sessionWriter(&conn)
	if werr, err := w.transmit(frame{Tag: 1, Val: make(chan int), HasVal: true}, false); werr != nil || err == nil {
		t.Fatalf("transmit of a chan: %v, %v; want an encoding error", werr, err)
	}
	if werr, err := w.transmit(frame{Tag: 2, Val: []float64{2}, HasVal: true}, false); werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	g := readSeq(t, newWireReader(&conn), 1)
	g.release()
}

// TestSessionUnencodableSendUnderSuspicion: a rank's transport refuses a frame
// it cannot encode with the encoding error, and the next message still
// arrives — a resumable session does not take the refused frame for a lost
// one and resume forever.
func TestSessionUnencodableSendUnderSuspicion(t *testing.T) {
	_, want := encodeValue(make(chan int))
	var sendErr error
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				sendErr = tcpOf(c).Send(frame{Ctx: c.ctx, Dst: 1, Tag: 1, Val: make(chan int), HasVal: true})
				return c.Send(1, 2, []int64{7})
			}
			var got []int64
			if _, err := c.Recv(0, 2, &got); err != nil {
				return err
			}
			if len(got) != 1 || got[0] != 7 {
				return fmt.Errorf("received %v, want [7]", got)
			}
			return nil
		}, WithHubOptions(HubSuspicion(5*time.Second)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendErr == nil || sendErr.Error() != want.Error() {
		t.Fatalf("Send of a chan returned %v, want %v", sendErr, want)
	}
}

// TestSessionResumesAtEveryCut: a connection carries a hello and three
// frames — a control frame with a gob payload, a raw []float64 and a []string
// — and breaks at every byte offset past the hello. The reader that read the
// prefix is then reset onto the replay of every frame it did not read in
// full, as a resume does (session.resumeLocked), and must deliver each frame
// exactly once, in order, with its payload intact: no frame leaves state
// behind that its replay could contradict.
func TestSessionResumesAtEveryCut(t *testing.T) {
	var conn bytes.Buffer
	if err := writeHello(&conn, hello{Rank: 1}); err != nil {
		t.Fatal(err)
	}
	helloLen := conn.Len()
	failure := abortInfo{Rank: 2, Msg: "rank 2 failed"}
	ctrl, err := encodeValue(failure)
	if err != nil {
		t.Fatal(err)
	}
	floats, strs := []float64{1.5, -2, 1e300}, []string{"halo", "", "exchange"}
	w := sessionWriter(&conn)
	for _, f := range []frame{
		{Dst: ctrlDst, Tag: tagFailed, Data: ctrl},
		{Ctx: 1, Src: 0, Dst: 1, Tag: 4, Val: floats, HasVal: true},
		{Ctx: 1, Src: 0, Dst: 1, Tag: 5, Val: strs, HasVal: true},
	} {
		if werr, err := w.transmit(f, false); werr != nil || err != nil {
			t.Fatal(werr, err)
		}
	}
	wire := conn.Bytes()
	var replay [][]byte // each frame as captured for replay
	for _, e := range w.sess.replay {
		replay = append(replay, bytes.Clone(e.buf))
	}

	// check requires f to be frame seq with its payload intact.
	check := func(f frame, seq uint64) error {
		switch seq {
		case 1:
			var got abortInfo
			if f.Dst != ctrlDst || f.Tag != tagFailed {
				return fmt.Errorf("control frame addressed %d tag %d", f.Dst, f.Tag)
			}
			if err := decodeValue(f.Data, &got); err != nil || got != failure {
				return fmt.Errorf("control payload %+v, %v", got, err)
			}
		case 2:
			var got []float64
			if err := f.decodeInto(&got); err != nil || f.Tag != 4 || !reflect.DeepEqual(got, floats) {
				return fmt.Errorf("[]float64 frame tag %d: %v, %v", f.Tag, got, err)
			}
		case 3:
			var got []string
			if err := f.decodeInto(&got); err != nil || f.Tag != 5 || !reflect.DeepEqual(got, strs) {
				return fmt.Errorf("[]string frame tag %d: %q, %v", f.Tag, got, err)
			}
		}
		return nil
	}
	for cut := helloLen; cut <= len(wire); cut++ {
		rd := newWireReader(bytes.NewReader(wire[:cut]))
		if hi, err := rd.readHello(); err != nil || hi.Rank != 1 || hi.Wire != wireVersion {
			t.Fatalf("cut %d: hello %+v, %v", cut, hi, err)
		}
		var got uint64 // frames read in full
		for resumed := false; ; {
			f, seq, err := rd.readFrame()
			if err != nil {
				if resumed && err != io.EOF {
					t.Fatalf("cut %d: after the resume, frame %d: %v", cut, got+1, err)
				}
				if resumed {
					break
				}
				rd.resetConn(bytes.NewReader(bytes.Join(replay[got:], nil)))
				resumed = true
				continue
			}
			if seq != got+1 {
				t.Fatalf("cut %d: frame %d arrived after %d", cut, seq, got)
			}
			if err := check(f, seq); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			got = seq
		}
		if got != uint64(len(replay)) {
			t.Fatalf("cut %d: %d of %d frames delivered", cut, got, len(replay))
		}
	}
}

// sessionFrames is what transmit puts on a connection for a session's frames
// 1 to 5, one slice each: raw payloads but for 2 and 5, gob.
func sessionFrames(f *testing.F) [][]byte {
	var conn bytes.Buffer
	w := sessionWriter(&conn)
	var out [][]byte
	for i := 1; i <= 5; i++ {
		fr := frame{Ctx: 1, Dst: 1, Tag: i, Val: []int64{int64(i)}, HasVal: true}
		if i == 2 || i == 5 {
			fr.Val = fmt.Sprint(i)
		}
		if werr, err := w.transmit(fr, false); werr != nil || err != nil {
			f.Fatal(werr, err)
		}
		out = append(out, bytes.Clone(conn.Bytes()))
		conn.Reset()
	}
	return out
}

// FuzzSessionReceive: arbitrary bytes through a wireReader into the accept
// path of a session that has sent five frames. It never panics, the frames it
// accepts carry sequences 1, 2, … each once, and an ack past the five sent
// ends the read. The seeds are real transmit output: clean, with a frame
// replayed, with one skipped, with an ack from the future, and with a flipped
// sequence bit in a raw frame and in a frame with a gob payload (the CRC
// catches both).
func FuzzSessionReceive(f *testing.F) {
	fr := sessionFrames(f)
	ack := func(n uint64) []byte {
		b := []byte{kindAck, 0, 0, 0, 0, 0, 0, 0, 0}
		le.PutUint64(b[1:], n)
		return b
	}
	flip := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		b[at] ^= 0x01
		return b
	}
	for _, seed := range [][][]byte{
		{fr[0], fr[1], ack(3), fr[2], fr[3], fr[4]},
		{fr[0], fr[1], fr[2], fr[2], fr[3], fr[4]},
		{fr[0], fr[1], fr[3], fr[4]},
		{fr[0], fr[1], ack(6), fr[2]},
		{fr[0], fr[1], flip(fr[2], 2), fr[3], fr[4]},
		{fr[0], flip(fr[1], 2), fr[2], fr[3], fr[4]},
	} {
		f.Add(bytes.Join(seed, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := testSession(t, bytes.NewReader(data), 5)
		future, acked := false, s.rd.onAck
		s.rd.onAck = func(a uint64) error {
			future = a > s.send.seqOut
			return acked(a)
		}
		var last uint64
		for {
			g, seq, err := s.rd.readFrame()
			if future && err == nil {
				t.Fatalf("an ack past the %d frames sent was believed", s.send.seqOut)
			}
			if err != nil {
				return
			}
			g.release()
			fresh, err := s.acceptLocked(seq)
			if err != nil {
				return
			}
			if fresh {
				if seq != last+1 {
					t.Fatalf("accepted sequence %d after %d", seq, last)
				}
				last = seq
			}
		}
	})
}

// TestWireCRCDetectsBitFlip: a raw frame with one payload bit flipped in
// flight must surface as *CorruptFrameError naming the frame, not as silent
// data corruption or a generic decode failure.
func TestWireCRCDetectsBitFlip(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn)
	rd := newWireReader(&conn)

	payload := []float64{1, 2, 3, 4}
	f := frame{Ctx: 1, Src: 0, WSrc: 0, Dst: 1, Tag: 5, Val: payload, HasVal: true}

	// Clean round trip first: the CRC must accept what the writer produced.
	kind, n := rawShape(f)
	buf, err := w.encodeFrame(f, 1, kind, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeEncoded(buf); err != nil {
		t.Fatal(err)
	}
	putWireBuf(buf)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	g, seq, err := rd.readFrame()
	if err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	g.release()

	// Same frame with the corruption armed: the reader must detect it.
	w.corruptNext = true
	buf, err = w.encodeFrame(f, 2, kind, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeEncoded(buf); err != nil {
		t.Fatal(err)
	}
	putWireBuf(buf)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err = rd.readFrame()
	var cerr *CorruptFrameError
	if !errors.As(err, &cerr) {
		t.Fatalf("corrupted frame read: got %v, want *CorruptFrameError", err)
	}
	if cerr.Seq != 2 || cerr.Tag != 5 || cerr.Dst != 1 {
		t.Fatalf("corrupt-frame attribution: %+v", cerr)
	}
	if cerr.Want == cerr.Got {
		t.Fatalf("error carries identical CRCs: %+v", cerr)
	}
}

// TestWireCRCDetectsBitFlipDirect: the streamed large-frame path computes and
// verifies the same CRC as the captured path.
func TestWireCRCDetectsBitFlipDirect(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn)
	rd := newWireReader(&conn)

	payload := make([]float64, 64<<10/8*3) // 3x replayFrameMax: always streamed
	for i := range payload {
		payload[i] = float64(i)
	}
	f := frame{Ctx: 1, Src: 1, WSrc: 1, Dst: 0, Tag: 9, Val: payload, HasVal: true}

	kind, n := rawShape(f)
	if err := w.writeFrameDirect(f, 7, kind, n); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	g, seq, err := rd.readFrame()
	if err != nil || seq != 7 {
		t.Fatalf("clean direct frame: seq %d, err %v", seq, err)
	}
	g.release()

	w.corruptNext = true
	if err := w.writeFrameDirect(f, 8, kind, n); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err = rd.readFrame()
	var cerr *CorruptFrameError
	if !errors.As(err, &cerr) {
		t.Fatalf("corrupted direct frame read: got %v, want *CorruptFrameError", err)
	}
	if cerr.Seq != 8 {
		t.Fatalf("corrupt-frame seq = %d, want 8", cerr.Seq)
	}
}
