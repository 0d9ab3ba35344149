package mpi

import (
	"bytes"
	"errors"
	"testing"
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
