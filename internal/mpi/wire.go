package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// le abbreviates the byte order every raw header and payload uses.
var le = binary.LittleEndian

// The wire format of the TCP transport: what a connection between a rank and
// the hub carries once the hello has crossed it. Every message starts with a
// one-byte kind and a uint64, little-endian like everything on it:
//
//	kindFrame  seq | header | crc32c uint32 | payload bytes
//	kindAck    ack                           (not sequenced, never replayed)
//
//	header:  Ctx int64 | Src int32 | WSrc int32 | Dst int32 | Tag int32 |
//	         element kind byte | payload length uint32
//
// A whitelisted slice travels as its element storage verbatim, its element
// kind in the header (rawcodec.go). Every other value, and every control
// frame, carries encodeValue's self-contained gob bytes under element kind
// rawNone: the representation the shm rings carry too. Every payload decodes
// on its own, so no codec state spans two frames and a resumed connection
// starts from nothing but the replayed bytes. The header's int32 fields hold
// every rank and every tag: user tags are bounded by math.MaxInt32
// (ErrInvalidTag). seq numbers the frames of a resumable *session*
// (session.go) and kindAck carries the receiver's cumulative acknowledgement.
//
// The hello that opens a connection is one self-contained gob value as well
// (writeHello). Its Wire field announces this format as wireVersion, the one
// version the hub admits.
//
// The CRC covers the sequence number, the fixed header and the payload — the
// payload in full up to 2*crcWindow bytes, and its first and last crcWindow
// bytes when larger. A bounded window keeps the integrity check off the
// large-message critical path (a full CRC over a 1 MiB payload costs ~25% of
// the ping-pong; the windows cost ~3%) while still catching header and
// sequence corruption, truncation, and bit flips near either end; the gate's
// stream-1MiB-tcp row times the result. Corruption detected by the reader
// surfaces as *CorruptFrameError,
// which the session layer treats like a broken connection: tear down,
// resume, retransmit the clean captured copy.
//
// Writes go through a bufio.Writer flushed once per frame, so every frame —
// header, payload, all of it — leaves in one write; heartbeat and control
// frames take the same path and flush promptly by construction.
const wireVersion = 3

const (
	kindFrame byte = 0x72 // 'r'
	kindAck   byte = 0x61 // 'a'
)

// headerLen is the fixed header of a frame.
const headerLen = 8 + 4 + 4 + 4 + 4 + 1 + 4

const (
	seqLen = 8
	crcLen = 4
	// framePrefixLen is everything before a frame's payload.
	framePrefixLen = 1 + seqLen + headerLen + crcLen
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64 and
// arm64, the same choice iSCSI and ext4 made.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWindow bounds the CRC's payload coverage: payloads up to 2*crcWindow
// are covered in full; larger ones contribute their first and last window.
const crcWindow = 64 << 10

// payloadCRC computes a frame's checksum over its sequence number and fixed
// header (hdr, contiguous) and the bounded payload coverage.
func payloadCRC(hdr, payload []byte) uint32 {
	c := crc32.Update(0, crcTable, hdr)
	if len(payload) <= 2*crcWindow {
		return crc32.Update(c, crcTable, payload)
	}
	c = crc32.Update(c, crcTable, payload[:crcWindow])
	return crc32.Update(c, crcTable, payload[len(payload)-crcWindow:])
}

// maxRawFrame bounds the payload length a reader will believe: a corrupted
// or adversarial stream must produce an error, not a giant allocation.
const maxRawFrame = 1 << 30

// eagerRawPayload is the longest payload the reader allocates on its
// header's word alone. A longer one is read into a buffer that grows with the
// bytes that actually arrive, so a damaged or hostile length costs what was
// sent, not what was announced.
const eagerRawPayload = 4 << 20

// wireBufSize sizes the bufio layers: large enough that a small frame plus
// its header coalesces into one write, small enough to be cheap per
// connection.
const wireBufSize = 64 << 10

// wireWriter is the sending half of one connection: a buffered writer,
// flushed once per frame, and the session whose sequence numbers and replay
// buffer the frames go through.
type wireWriter struct {
	bw   *bufio.Writer
	hdr  [framePrefixLen]byte // writeFrameDirect's scratch
	ack  [1 + seqLen]byte     // writeAck's scratch: a local would escape through Write
	sess *sendSession         // where transmit's sequences and buffers come from and go back to

	// corruptNext makes the next frame written leave the writer with the low
	// bit of its last byte flipped — on the wire only, never in the captured
	// replay copy. The FaultCorrupt injector arms it to prove the CRC catches
	// real bit rot.
	corruptNext bool
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, wireBufSize)}
}

// resetConn points the buffered writer at a new connection after a session
// resume.
func (w *wireWriter) resetConn(c io.Writer) { w.bw.Reset(c) }

func (w *wireWriter) flush() error { return w.bw.Flush() }

// writeHello sends the hello that opens a connection — a first dial's, a
// rejoin's and a resume's alike — announcing wireVersion: one self-contained
// gob value, written straight to the connection before any frame.
func writeHello(conn io.Writer, hi hello) error {
	hi.Wire = wireVersion
	data, err := encodeValue(hi)
	if err == nil {
		_, err = conn.Write(data)
	}
	return err
}

// rawShape reports how a frame travels: its element kind and its n payload
// bytes. A typed value (f.Val) on the raw whitelist travels as its element
// storage; any other frame carries its payload in Data already — bytes being
// forwarded (the hub's routing path), or gob bytes under rawNone. wireShape
// puts a typed value off the whitelist in that form first.
func rawShape(f frame) (kind byte, n int) {
	if f.HasVal {
		if kind, ok := rawKindOf(f.Val); ok {
			return kind, rawSizeOf(f.Val)
		}
	}
	return f.Raw, len(f.Data)
}

// wireShape returns f in the form it leaves the process in, over TCP and shm
// alike, with rawShape's kind and n for it: a typed value off the raw
// whitelist becomes its gob bytes (rawNone), so an in-memory value can never
// leak out unencoded.
func wireShape(f frame) (frame, byte, int, error) {
	kind, n := rawShape(f)
	if f.HasVal && kind == rawNone {
		data, err := encodeValue(f.Val)
		if err != nil {
			return f, kind, 0, err
		}
		f.Data, f.Val, f.HasVal, n = data, nil, false, len(data)
	}
	return f, kind, n, nil
}

// payloadBytes returns the n payload bytes of a frame in wire form as they
// are written, from whichever form the frame carries them in: Data as it is,
// a typed value's own storage where that is its wire encoding, or else the
// value encoded into a pooled scratch, also returned for the caller to put
// back (putWireBuf) once the bytes are written.
func payloadBytes(f frame, n int) (b, scratch []byte) {
	if !f.HasVal {
		return f.Data, nil
	}
	if view, ok := rawBytesView(f.Val); ok {
		return view, nil
	}
	scratch = getWireBuf(n)
	rawEncode(scratch, f.Val)
	return scratch, scratch
}

// putPayload copies a frame's payload (payloadBytes) into dst, which is as
// long as the payload.
func putPayload(dst []byte, f frame) {
	b, scratch := payloadBytes(f, len(dst))
	copy(dst, b)
	putWireBuf(scratch)
}

// encodeFrame renders one frame in wire form — kind byte, sequence, header,
// CRC, payload; kind and n are rawShape's — into a pooled buffer and returns
// it. The caller (the session layer) owns the buffer: it is written with
// writeEncoded, kept for replay, and released once the peer acks past seq
// (sendSession.trim). Once wireShape has run nothing here can fail: the error
// is always nil.
func (w *wireWriter) encodeFrame(f frame, seq uint64, kind byte, n int) ([]byte, error) {
	buf := w.sess.frameBuf(framePrefixLen + n)
	putPayload(buf[framePrefixLen:], f)
	putPrefix(buf, f, kind, seq, buf[framePrefixLen:])
	return buf, nil
}

// transmit puts one frame on the session: encoded, sequenced, then captured
// for replay and written, or — a raw payload over replayFrameMax — streamed
// from where it lies (the zero-copy path) with its sequence recorded as a
// replay gap, and captured after the fact only if the write broke: the
// payload is still intact, so the resume is not doomed by the very frame that
// broke it. A gob payload is captured whatever its size: its encoding costs
// more than the copy, and a gap would cost the resume. With the connection
// down (parked) the frame is captured for the resume and nothing is written.
// A write error comes back apart from any other: the frame is then in the
// replay buffer, and the session decides between a resume and the end. A
// frame that cannot be encoded takes no sequence number: the receiver would
// read the hole as a lost frame. An armed corruption applies to this frame
// or to none.
func (w *wireWriter) transmit(f frame, parked bool) (werr, err error) {
	defer func() { w.corruptNext = false }()
	s := w.sess
	f, kind, n, err := wireShape(f)
	if err != nil {
		return nil, err
	}
	seq := s.nextSeq()
	if !parked && kind != rawNone && n > replayFrameMax {
		if werr = w.writeFrameDirect(f, seq, kind, n); werr == nil {
			werr = w.flush()
		}
		if werr == nil {
			s.gap(seq)
			return nil, nil
		}
		buf, _ := w.encodeFrame(f, seq, kind, n)
		s.record(seq, buf)
		return werr, nil
	}
	buf, _ := w.encodeFrame(f, seq, kind, n)
	if !parked {
		if werr = w.writeEncoded(buf); werr == nil {
			werr = w.flush()
		}
	}
	// Record after the write: record may evict old frames under budget
	// pressure, and the buffer being written must not be reclaimed mid-write.
	s.record(seq, buf)
	return werr, nil
}

// putPrefix fills a frame's framePrefixLen bytes — kind, sequence, header
// (addressing, element kind, payload length) and the CRC over sequence,
// header and payload — at the front of h.
func putPrefix(h []byte, f frame, kind byte, seq uint64, payload []byte) {
	h[0] = kindFrame
	le.PutUint64(h[1:], seq)
	covered := h[1 : 1+seqLen+headerLen]
	h = h[1+seqLen:]
	le.PutUint64(h[0:], uint64(f.Ctx))
	le.PutUint32(h[8:], uint32(int32(f.Src)))
	le.PutUint32(h[12:], uint32(int32(f.WSrc)))
	le.PutUint32(h[16:], uint32(int32(f.Dst)))
	le.PutUint32(h[20:], uint32(int32(f.Tag)))
	h[24] = kind
	le.PutUint32(h[25:], uint32(len(payload)))
	le.PutUint32(h[headerLen:], payloadCRC(covered, payload))
}

// writeEncoded puts one captured frame on the wire, without flushing.
func (w *wireWriter) writeEncoded(buf []byte) error { return w.writeEnd(buf) }

// writeEnd writes b, the bytes that end a frame. An armed corruption flips
// the low bit of the last one in transit: a payload byte, or the CRC's when
// the payload is empty, so the reader's check fails either way. The captured
// copy stays pristine, which is exactly what lets the retransmit after the
// CRC failure deliver clean bytes.
func (w *wireWriter) writeEnd(b []byte) error {
	if !w.corruptNext || len(b) == 0 {
		_, err := w.bw.Write(b)
		return err
	}
	w.corruptNext = false
	if _, err := w.bw.Write(b[:len(b)-1]); err != nil {
		return err
	}
	return w.bw.WriteByte(b[len(b)-1] ^ 0x01)
}

// writeFrameDirect streams one large raw frame (kind and n are rawShape's,
// n over replayFrameMax) without capturing it: the payload goes straight from
// where it lies — a forwarded buffer, or a typed value's own backing array
// where that is the wire encoding (payloadBytes). Sends are synchronous on
// the caller's goroutine and the write completes before Send returns, so the
// wire never reads the slice after the caller regains control. The caller
// records the sequence as a replay gap. Does not flush.
func (w *wireWriter) writeFrameDirect(f frame, seq uint64, kind byte, n int) error {
	payload, scratch := payloadBytes(f, n)
	putPrefix(w.hdr[:], f, kind, seq, payload)
	_, err := w.bw.Write(w.hdr[:])
	if err == nil {
		err = w.writeEnd(payload)
	}
	putWireBuf(scratch)
	return err
}

// writeAck sends a cumulative receive acknowledgement and flushes. Acks are
// not sequenced and never replayed: a lost ack just means the peer trims a
// little later.
func (w *wireWriter) writeAck(seq uint64) error {
	w.ack[0] = kindAck
	le.PutUint64(w.ack[1:], seq)
	if _, err := w.bw.Write(w.ack[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// wireReader is the receiving half: a buffered reader demultiplexing kind
// bytes, reading each frame's sequence number and checking its CRC.
type wireReader struct {
	br *bufio.Reader
	// hdr is readFrame's scratch, a sequence number and a header with its
	// CRC, contiguous as the CRC covers them: a local would escape through
	// io.ReadFull, once per frame.
	hdr [seqLen + headerLen + crcLen]byte

	// onAck receives the peer's cumulative acks; the session layer uses it to
	// trim the replay buffer, and an error it returns ends readFrame. Called
	// from the reading goroutine.
	onAck func(uint64) error

	// land, where set (a rank's reader; never the hub's), is shown the
	// header of a streamed raw frame — n payload bytes, more than
	// replayFrameMax, still unread — and may return the n bytes of storage
	// they are to be read into: the destination of the receive that waits for
	// them (mailbox.claim). nil reads the payload into a buffer of its own.
	land func(f frame, n int) []byte
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{br: bufio.NewReaderSize(r, wireBufSize)}
}

// resetConn points the buffered reader at a new connection after a session
// resume. The caller must guarantee no read is in flight.
func (r *wireReader) resetConn(c io.Reader) { r.br.Reset(c) }

// readHello reads the hello that opens a connection (writeHello). gob reads
// through br's io.ByteReader and never past the value, so the next byte is
// the first frame's.
func (r *wireReader) readHello() (hello, error) {
	var hi hello
	err := gob.NewDecoder(r.br).Decode(&hi)
	return hi, err
}

// readFrame reads one frame, returning its sequence number. A raw payload is
// read into a pooled buffer (frame.Data, flagged by frame.Raw) that the
// consumer returns via frame.release or decodeInto, or into the receive that
// waits for it (readBody, frame.landed); a gob payload (rawNone) into a
// fresh slice of its exact size, which the frame owns. Acks are consumed
// internally via onAck. A CRC mismatch returns *CorruptFrameError; the stream
// position is past the frame, but the session layer tears the connection
// down rather than trusting anything after it.
func (r *wireReader) readFrame() (frame, uint64, error) {
	for {
		kind, err := r.br.ReadByte()
		if err != nil {
			return frame{}, 0, err
		}
		if _, err := io.ReadFull(r.br, r.hdr[:seqLen]); err != nil {
			return frame{}, 0, err
		}
		seq := le.Uint64(r.hdr[:])
		switch kind {
		case kindAck:
			if r.onAck != nil {
				if err := r.onAck(seq); err != nil {
					return frame{}, seq, err
				}
			}
		case kindFrame:
			f, err := r.readBody(seq)
			return f, seq, err
		default:
			return frame{}, seq, fmt.Errorf("mpi: unknown wire frame kind 0x%02x", kind)
		}
	}
}

// readBody reads a frame's header, CRC and payload: into a buffer of its own,
// or — a streamed raw frame that land found a receive for — straight into
// that receive's destination, which f.Data then views and f.landed marks as
// nothing to decode and nothing to release. The CRC is checked over the bytes
// where they lie; after an error the caller gives the claimed receive back.
func (r *wireReader) readBody(seq uint64) (frame, error) {
	var f frame
	h := r.hdr[seqLen:]
	if _, err := io.ReadFull(r.br, h); err != nil {
		return f, err
	}
	n := int(le.Uint32(h[25:]))
	if n > maxRawFrame {
		return f, fmt.Errorf("mpi: frame announces %d payload bytes (corrupt stream?)", n)
	}
	f.Ctx = int64(le.Uint64(h[0:]))
	f.Src = int(int32(le.Uint32(h[8:])))
	f.WSrc = int(int32(le.Uint32(h[12:])))
	f.Dst = int(int32(le.Uint32(h[16:])))
	f.Tag = int(int32(le.Uint32(h[20:])))
	f.Raw = h[24]
	var payload []byte
	if r.land != nil && n > replayFrameMax {
		payload = r.land(f, n)
	}
	landed := payload != nil
	var err error
	if !landed && n > eagerRawPayload {
		var b bytes.Buffer // grows with what arrives
		_, err = io.CopyN(&b, r.br, int64(n))
		payload = b.Bytes()
	} else {
		switch {
		case landed:
		case f.Raw == rawNone:
			payload = make([]byte, n) // the frame's own: release leaves gob bytes alone
		default:
			payload = getWireBuf(n)
		}
		_, err = io.ReadFull(r.br, payload)
	}
	if err == nil {
		want := le.Uint32(h[headerLen:])
		if got := payloadCRC(r.hdr[:seqLen+headerLen], payload); got != want {
			err = &CorruptFrameError{Seq: seq, Src: f.WSrc, Dst: f.Dst, Tag: f.Tag, Want: want, Got: got}
		}
	}
	if err != nil {
		if !landed {
			putWireBuf(payload)
		}
		return f, err
	}
	f.Data, f.landed = payload, landed
	return f, nil
}
