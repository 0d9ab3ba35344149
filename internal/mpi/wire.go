package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// le abbreviates the byte order every raw header and payload uses.
var le = binary.LittleEndian

// The wire format of the TCP transport: what a connection between a rank and
// the hub carries once the hello has crossed it. Every message starts with a
// one-byte kind and a uint64, little-endian like everything raw:
//
//	kindGob  seq | one gob-encoded frame
//	kindRaw  seq | header | crc32c uint32 | payload bytes
//	kindAck  ack                             (not sequenced, never replayed)
//
//	header:  Ctx int64 | Src int32 | WSrc int32 | Dst int32 | Tag int32 |
//	         raw kind byte | payload length uint32
//
// A raw frame carries a whitelisted slice's element storage verbatim (see
// rawcodec.go); gob is the payload encoding of every other value and of every
// control frame. seq numbers the data frames of a resumable *session*
// (session.go) and kindAck carries the receiver's cumulative acknowledgement.
// hello.Wire announces this format as wireVersion2, the one version the hub
// admits.
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
// Raw bytes and a live gob stream share a connection because the decoder
// reads from a *bufio.Reader: gob consumes exactly one message's bytes via
// the io.ByteReader interface and never reads ahead, so the next byte after
// a gob message is always ours to interpret as the next kind.
//
// Writes go through a bufio.Writer flushed once per frame, so every frame —
// header, payload, all of it — leaves in one write; heartbeat and control
// frames take the same path and flush promptly by construction.
const wireVersion2 = 2

const (
	kindGob byte = 0x67 // 'g'
	kindRaw byte = 0x72 // 'r'
	kindAck byte = 0x61 // 'a'
)

// rawHeaderLen is the fixed header of a kindRaw frame.
const rawHeaderLen = 8 + 4 + 4 + 4 + 4 + 1 + 4

const (
	seqLen = 8
	crcLen = 4
	// v2RawPrefixLen is everything before a raw frame's payload.
	v2RawPrefixLen = 1 + seqLen + rawHeaderLen + crcLen
	// v2GobPrefixLen is everything before a gob frame's encoded bytes.
	v2GobPrefixLen = 1 + seqLen
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
// flushed once per frame, and a persistent gob encoder. The encoder targets
// gobBuf, never the connection, so the session layer can capture a frame's
// exact bytes for replay — the encoder (and its type-descriptor state)
// survives connection swaps, which is what makes resuming a half-spoken gob
// stream on a fresh TCP connection sound.
type wireWriter struct {
	bw     *bufio.Writer
	enc    *gob.Encoder
	gobBuf bytes.Buffer         // per-frame gob staging
	hdr    [v2RawPrefixLen]byte // writeFrameDirect's scratch
	ack    [1 + seqLen]byte     // writeAck's scratch: a local would escape through Write
	sess   *sendSession         // where transmit's sequences and buffers come from and go back to

	// corruptNext makes the next raw frame leave the writer with one payload
	// bit flipped — on the wire only, never in the captured replay copy. The
	// FaultCorrupt injector arms it to prove the CRC catches real bit rot.
	corruptNext bool
}

func newWireWriter(w io.Writer) *wireWriter {
	ww := &wireWriter{bw: bufio.NewWriterSize(w, wireBufSize)}
	ww.enc = gob.NewEncoder(&ww.gobBuf)
	return ww
}

// resetConn points the buffered writer at a new connection after a session
// resume. The gob encoder's state is unaffected.
func (w *wireWriter) resetConn(c io.Writer) { w.bw.Reset(c) }

func (w *wireWriter) flush() error { return w.bw.Flush() }

// writeHello sends the connection's opening handshake: a bare gob value, no
// kind byte and no sequence (the session starts after it).
func (w *wireWriter) writeHello(hi hello) error {
	if err := w.enc.Encode(hi); err != nil {
		return err
	}
	_, err := w.bw.Write(w.gobBuf.Bytes())
	w.gobBuf.Reset()
	if err != nil {
		return err
	}
	return w.bw.Flush()
}

// rawShape decides how a frame travels, once per frame: as kindRaw, with the
// element kind and the n payload bytes it reports, or — rawNone — gob-encoded.
// A payload being forwarded (the hub's routing path) is f.Data as it is; a
// typed value (f.Val) travels raw when it is on the whitelist and its
// addressing fits the header. Everything else is gob-encoded, typed values
// outside the whitelist included, so an in-memory value can never leak onto
// the wire unencoded.
func rawShape(f frame) (kind byte, n int) {
	if f.Raw != rawNone {
		return f.Raw, len(f.Data)
	}
	if f.HasVal && headerRanksFit(f) {
		if kind, ok := rawKindOf(f.Val); ok {
			return kind, rawSizeOf(f.Val)
		}
	}
	return rawNone, 0
}

// encodeFrame renders one frame — kind byte, sequence, header, CRC, payload;
// kind and n are rawShape's — into a pooled buffer and returns it. The caller
// (the session layer) owns the buffer: it is written with writeEncoded, kept
// for replay, and released once the peer acks past seq (sendSession.trim).
func (w *wireWriter) encodeFrame(f frame, seq uint64, kind byte, n int) ([]byte, error) {
	if kind != rawNone {
		buf := w.sess.frameBuf(v2RawPrefixLen + n)
		payload := buf[v2RawPrefixLen:]
		if f.Raw != rawNone {
			copy(payload, f.Data)
		} else if view, ok := rawBytesView(f.Val); ok {
			copy(payload, view)
		} else {
			rawEncode(payload, f.Val)
		}
		putRawPrefix(buf, f, kind, seq, payload)
		return buf, nil
	}
	if f.HasVal {
		data, err := encodeValue(f.Val)
		if err != nil {
			return nil, err
		}
		f.Data, f.Val, f.HasVal = data, nil, false
	}
	w.gobBuf.Reset()
	if err := w.enc.Encode(f); err != nil {
		return nil, err
	}
	gb := w.gobBuf.Bytes()
	buf := w.sess.frameBuf(v2GobPrefixLen + len(gb))
	buf[0] = kindGob
	le.PutUint64(buf[1:], seq)
	copy(buf[v2GobPrefixLen:], gb)
	w.gobBuf.Reset()
	return buf, nil
}

// transmit puts one frame on the session: encoded, sequenced, then captured
// for replay and written, or — a raw payload over replayFrameMax — streamed
// from where it lies (the zero-copy path) with its sequence recorded as a
// replay gap, and captured after the fact only if the write broke: the
// payload is still intact, so the resume is not doomed by the very frame that
// broke it. With the connection down (parked) the frame is captured for the
// resume and nothing is written. A write error comes back apart from any
// other: the frame is then in the replay buffer, and the session decides
// between a resume and the end. A frame that cannot be encoded takes no
// sequence number: the receiver would read the hole as a lost frame.
func (w *wireWriter) transmit(f frame, parked bool) (werr, err error) {
	s := w.sess
	kind, n := rawShape(f)
	if !parked && n > replayFrameMax {
		seq := s.nextSeq() // raw: nothing to fail in the encoding
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
	buf, err := w.encodeFrame(f, s.seqOut+1, kind, n)
	if err != nil {
		return nil, err
	}
	seq := s.nextSeq()
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

// putRawPrefix fills a raw frame's v2RawPrefixLen bytes — kind, sequence,
// header (addressing, element kind, payload length) and the CRC over
// sequence, header and payload — at the front of h.
func putRawPrefix(h []byte, f frame, kind byte, seq uint64, payload []byte) {
	h[0] = kindRaw
	le.PutUint64(h[1:], seq)
	covered := h[1 : 1+seqLen+rawHeaderLen]
	h = h[1+seqLen:]
	le.PutUint64(h[0:], uint64(f.Ctx))
	le.PutUint32(h[8:], uint32(int32(f.Src)))
	le.PutUint32(h[12:], uint32(int32(f.WSrc)))
	le.PutUint32(h[16:], uint32(int32(f.Dst)))
	le.PutUint32(h[20:], uint32(int32(f.Tag)))
	h[24] = kind
	le.PutUint32(h[25:], uint32(len(payload)))
	le.PutUint32(h[rawHeaderLen:], payloadCRC(covered, payload))
}

// writeEncoded puts one captured frame on the wire, without flushing. An
// armed corruption flips the last payload byte's low bit in transit — the
// captured copy stays pristine, which is exactly what lets the retransmit
// after the CRC failure deliver clean bytes.
func (w *wireWriter) writeEncoded(buf []byte) error {
	if w.corruptNext && buf[0] == kindRaw && len(buf) > v2RawPrefixLen {
		w.corruptNext = false
		if _, err := w.bw.Write(buf[:len(buf)-1]); err != nil {
			return err
		}
		return w.bw.WriteByte(buf[len(buf)-1] ^ 0x01)
	}
	_, err := w.bw.Write(buf)
	return err
}

// writeFrameDirect streams one large raw frame (kind and n are rawShape's)
// without capturing it: the payload goes straight from where it lies — a
// forwarded buffer, or a typed value's own backing array where that is the
// wire encoding. Sends are synchronous on the caller's goroutine and the
// write completes before Send returns, so the wire never reads the slice
// after the caller regains control. Elsewhere (and for []bool, whose storage
// is not the wire format) the elements are encoded into a pooled scratch.
// The caller records the sequence as a replay gap. Does not flush.
func (w *wireWriter) writeFrameDirect(f frame, seq uint64, kind byte, n int) error {
	payload, scratch := f.Data, []byte(nil)
	if f.Raw == rawNone {
		var ok bool
		if payload, ok = rawBytesView(f.Val); !ok {
			scratch = getWireBuf(n)
			rawEncode(scratch, f.Val)
			payload = scratch
		}
	}
	putRawPrefix(w.hdr[:], f, kind, seq, payload)
	_, err := w.bw.Write(w.hdr[:])
	if err == nil && len(payload) > 0 {
		if w.corruptNext {
			w.corruptNext = false
			if _, err = w.bw.Write(payload[:len(payload)-1]); err == nil {
				err = w.bw.WriteByte(payload[len(payload)-1] ^ 0x01)
			}
		} else {
			_, err = w.bw.Write(payload)
		}
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

// headerRanksFit reports whether the frame's addressing fields survive the
// raw header's int32 fields. Ranks always do (they are small); a pathological
// user tag beyond 31 bits falls back to gob rather than truncating.
func headerRanksFit(f frame) bool {
	return fitsInt32(f.Src) && fitsInt32(f.WSrc) && fitsInt32(f.Dst) && fitsInt32(f.Tag)
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// wireReader is the receiving half: a buffered reader with a persistent gob
// decoder, demultiplexing kind bytes, reading each frame's sequence number
// and checking raw frames' CRCs.
type wireReader struct {
	br  *bufio.Reader
	dec *gob.Decoder
	// hdr is readFrame's scratch, a sequence number and a raw header with its
	// CRC, contiguous as the CRC covers them: a local would escape through
	// io.ReadFull, once per frame.
	hdr [seqLen + rawHeaderLen + crcLen]byte

	// onAck receives the peer's cumulative acks; the session layer uses it to
	// trim the replay buffer, and an error it returns ends readFrame. Called
	// from the reading goroutine.
	onAck func(uint64) error

	// land, where set (a rank's reader; never the hub's), is shown the
	// header of a streamed raw frame — n payload bytes, more than
	// replayFrameMax, still unread — and may return the n bytes of storage
	// they are to be read into: the destination of the receive that waits for
	// them (mailbox.claim). nil reads the payload into a pooled buffer.
	land func(f frame, n int) []byte
}

func newWireReader(r io.Reader) *wireReader {
	br := bufio.NewReaderSize(r, wireBufSize)
	return &wireReader{br: br, dec: gob.NewDecoder(br)}
}

// resetConn points the buffered reader at a new connection after a session
// resume. The caller must guarantee no read is in flight. The gob decoder
// keeps its type-descriptor state — it reads through br and survives the
// swap, matching the sender's persistent encoder.
func (r *wireReader) resetConn(c io.Reader) { r.br.Reset(c) }

// readHello reads the connection's opening handshake.
func (r *wireReader) readHello() (hello, error) {
	var hi hello
	err := r.dec.Decode(&hi)
	return hi, err
}

// readFrame reads one frame, returning its sequence number. Raw payloads are
// read into a pooled buffer (frame.Data, flagged by frame.Raw) that the
// consumer returns via frame.release or decodeInto, or into the receive that
// waits for them (readRawBody, frame.landed). Acks are consumed internally
// via onAck. A CRC mismatch returns *CorruptFrameError; the stream position is
// past the frame, but the session layer tears the connection down rather than
// trusting anything after it.
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
		case kindGob:
			var f frame
			err := r.dec.Decode(&f)
			return f, seq, err
		case kindRaw:
			f, err := r.readRawBody(seq)
			return f, seq, err
		default:
			return frame{}, seq, fmt.Errorf("mpi: unknown wire frame kind 0x%02x", kind)
		}
	}
}

// readRawBody reads a raw frame's header, CRC and payload: into a pooled
// buffer, or — a streamed frame that land found a receive for — straight
// into that receive's destination, which f.Data then views and f.landed
// marks as nothing to decode and nothing to release. The CRC is checked over
// the bytes where they lie; after an error the caller gives the claimed
// receive back.
func (r *wireReader) readRawBody(seq uint64) (frame, error) {
	// The raw branch keeps its frame variable to itself: sharing one
	// across the gob branches would let Decode's &f force a heap
	// allocation here too, breaking the zero-alloc receive loop.
	var f frame
	h := r.hdr[seqLen:]
	if _, err := io.ReadFull(r.br, h); err != nil {
		return f, err
	}
	n := int(le.Uint32(h[25:]))
	if n > maxRawFrame {
		return f, fmt.Errorf("mpi: raw frame announces %d payload bytes (corrupt stream?)", n)
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
		if !landed {
			payload = getWireBuf(n)
		}
		_, err = io.ReadFull(r.br, payload)
	}
	if err == nil {
		want := le.Uint32(h[rawHeaderLen:])
		if got := payloadCRC(r.hdr[:seqLen+rawHeaderLen], payload); got != want {
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
