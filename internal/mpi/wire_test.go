package mpi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Wire-layer tests: the raw codec's round trips, raw and gob payloads
// interleaved in the one frame layout, the one decoder under arbitrary bytes,
// the refusal of any other wire version, and the allocation discipline the
// pooled buffers buy.

// sessionWriter is a wireWriter on w with a fresh session: what transmit
// needs.
func sessionWriter(w io.Writer) *wireWriter {
	ww := newWireWriter(w)
	ww.sess = &sendSession{}
	return ww
}

// readSeq reads the next frame and checks it arrived as sequence want.
func readSeq(t *testing.T, rd *wireReader, want uint64) frame {
	t.Helper()
	f, seq, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if seq != want {
		t.Fatalf("frame arrived as sequence %d, want %d", seq, want)
	}
	return f
}

func TestRawCodecRoundTrip(t *testing.T) {
	cases := []any{
		[]float64{0, 1.5, -2.25, 1e300, -1e-300},
		[]int{0, 1, -1, 1 << 40, -(1 << 40)},
		[]int64{0, -9e18, 9e18},
		[]int32{0, 1, -1, 1 << 30, -(1 << 30)},
		[]float32{0, 1.5, -2.25, 3e38},
		[]byte{0, 1, 255, 7},
		[]bool{true, false, true, true},
	}
	for _, v := range cases {
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			kind, ok := rawKindOf(v)
			if !ok {
				t.Fatalf("rawKindOf(%T) = not encodable", v)
			}
			buf := make([]byte, rawSizeOf(v))
			if n := rawEncode(buf, v); n != len(buf) {
				t.Fatalf("rawEncode wrote %d bytes, rawSizeOf said %d", n, len(buf))
			}
			got, err := rawDecode(kind, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip: got %v, want %v", got, v)
			}
		})
	}
	if _, ok := rawKindOf([]string{"not", "fixed", "width"}); ok {
		t.Fatal("[]string must not be raw-encodable")
	}
	if _, ok := rawKindOf(42); ok {
		t.Fatal("scalars must not be raw-encodable")
	}
}

// TestRawDecodeIntoReusesBacking: a receive buffer with enough capacity is
// reused in place — the property the zero-alloc receive loop rests on.
func TestRawDecodeIntoReusesBacking(t *testing.T) {
	src := []float64{1, 2, 3}
	buf := make([]byte, rawSizeOf(src))
	rawEncode(buf, src)

	dst := make([]float64, 0, 8)
	backing := &dst[:1][0]
	if !rawDecodeInto(rawFloat64, buf, &dst) {
		t.Fatal("matching decode refused")
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("decoded %v, want %v", dst, src)
	}
	if &dst[0] != backing {
		t.Fatal("decode with sufficient capacity reallocated the backing array")
	}
	// Mismatched element type must refuse, not guess.
	var wrong []int64
	if rawDecodeInto(rawFloat64, buf, &wrong) {
		t.Fatal("cross-type decode succeeded")
	}
}

// TestWireInterleavedFrames: one connection carries gob and raw payloads back
// to back, all four frames in the one layout; the reader tells them apart by
// the header's element kind, each decodes on its own, and neither corrupts
// the other — the property that lets typed payloads share a connection with
// control traffic.
func TestWireInterleavedFrames(t *testing.T) {
	var conn bytes.Buffer
	w := sessionWriter(&conn)
	rd := newWireReader(&conn)

	floats := []float64{3.14, -2.71, 1e9}
	ints := []int{5, -6, 7}
	rawInts := make([]byte, rawSizeOf(ints))
	rawEncode(rawInts, ints)

	frames := []frame{
		{Ctx: 1, Src: 0, Dst: 1, Tag: 3, Val: "control", HasVal: true},     // gob: not whitelisted
		{Ctx: 1, Src: 0, Dst: 1, Tag: 4, Val: floats, HasVal: true},        // raw: typed send
		{Ctx: 1, Src: 2, Dst: 1, Tag: 5, Data: rawInts, Raw: rawInt},       // raw: forwarded payload
		{Ctx: 1, Src: 0, Dst: 1, Tag: 6, Val: []string{"s"}, HasVal: true}, // gob: typed but not raw-encodable
	}
	for _, f := range frames {
		if werr, err := w.transmit(f, false); werr != nil || err != nil {
			t.Fatal(werr, err)
		}
	}

	var s string
	f0 := readSeq(t, rd, 1)
	if err := f0.decodeInto(&s); err != nil || s != "control" {
		t.Fatalf("frame 0: %q, %v", s, err)
	}

	f1 := readSeq(t, rd, 2)
	if f1.Raw != rawFloat64 || f1.Tag != 4 || f1.Src != 0 {
		t.Fatalf("frame 1 header: %+v", f1)
	}
	var gotF []float64
	if err := f1.decodeInto(&gotF); err != nil || !reflect.DeepEqual(gotF, floats) {
		t.Fatalf("frame 1: %v, %v", gotF, err)
	}

	f2 := readSeq(t, rd, 3)
	if f2.Raw != rawInt || f2.Src != 2 || f2.Tag != 5 {
		t.Fatalf("frame 2 header: %+v", f2)
	}
	var gotI []int
	if err := f2.decodeInto(&gotI); err != nil || !reflect.DeepEqual(gotI, ints) {
		t.Fatalf("frame 2: %v, %v", gotI, err)
	}

	f3 := readSeq(t, rd, 4)
	var gotS []string
	if err := f3.decodeInto(&gotS); err != nil || !reflect.DeepEqual(gotS, []string{"s"}) {
		t.Fatalf("frame 3: %v, %v", gotS, err)
	}
}

// TestWireMismatchFallsBackToGob: receiving a raw []float64 into *[]float32
// must behave exactly like the serialized path — a gob round trip with gob's
// numeric conversion rules — rather than erroring or bit-casting.
func TestWireMismatchFallsBackToGob(t *testing.T) {
	var conn bytes.Buffer
	w := sessionWriter(&conn)
	rd := newWireReader(&conn)

	sent := []float64{1, 2.5, -3} // exactly representable in float32
	if werr, err := w.transmit(frame{Ctx: 1, Tag: 1, Val: sent, HasVal: true}, false); werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	f := readSeq(t, rd, 1)
	var got []float32
	if err := f.decodeInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, 2.5, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestWireRawSendZeroAlloc pins the acceptance bar for the typed TCP path:
// once the buffer freelist is warm, a steady-state send+receive of a
// whitelisted slice allocates zero amortized heap bytes per message. The
// loopback is a real OS pipe, so the measured path is the production one:
// bufio flush, kind demultiplex, pooled payload buffer, in-place decode. The
// sender is the session's captured path (the raw decision, encode into a
// pooled buffer, write, release on ack) and the reader takes a sequence
// number and checks a CRC.
func TestWireRawSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race-detector instrumentation")
	}
	t.Run("v2", testWireRawSendZeroAlloc)
}

func testWireRawSendZeroAlloc(t *testing.T) {
	// Earlier tests leave arbitrary-sized buffers in the freelist; steady
	// state for THIS message size starts from an empty pool plus warm-up.
	for {
		select {
		case <-wireBufs:
			continue
		default:
		}
		break
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()

	w := newWireWriter(pw)
	rd := newWireReader(pr)

	const elems = 4096 // 32 KiB payload: fits the pipe buffer, so one
	// goroutine can drive both ends without deadlock.
	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(i)
	}
	// The frame is built once: the loop under measurement is send/recv of a
	// long-lived message shape, the steady state of a halo exchange.
	f := frame{Ctx: 1, Src: 0, WSrc: 0, Dst: 1, Tag: 5, Val: payload, HasVal: true}
	dst := make([]float64, elems)

	var loopErr error
	var seq uint64
	send := func() error {
		seq++
		kind, n := rawShape(f)
		buf, err := w.encodeFrame(f, seq, kind, n)
		if err != nil {
			return err
		}
		defer putWireBuf(buf) // acknowledged
		if err := w.writeEncoded(buf); err != nil {
			return err
		}
		return w.flush()
	}
	roundTrip := func() {
		if err := send(); err != nil {
			loopErr = err
			return
		}
		g, got, err := rd.readFrame()
		if err == nil && got != seq {
			err = fmt.Errorf("frame %d arrived as sequence %d", seq, got)
		}
		if err != nil {
			loopErr = err
			return
		}
		if !rawDecodeInto(g.Raw, g.Data, &dst) {
			loopErr = fmt.Errorf("frame arrived non-raw: %+v", g)
			return
		}
		putWireBuf(g.Data)
	}
	for i := 0; i < 4 && loopErr == nil; i++ {
		roundTrip() // warm the freelist
	}
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	if dst[elems-1] != float64(elems-1) {
		t.Fatalf("decode corrupted payload: %v", dst[elems-1])
	}

	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Fatalf("steady-state raw round trip allocates %v objects per message, want 0", allocs)
	}
	if loopErr != nil {
		t.Fatal(loopErr)
	}
}

// TestWireAnnouncedLengthCostsWhatArrived: a frame header announcing the
// longest payload the reader believes, followed by ten bytes and the end of
// the stream, is an error that allocates about what arrived — not the
// gigabyte announced.
func TestWireAnnouncedLengthCostsWhatArrived(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race-detector instrumentation")
	}
	var conn bytes.Buffer
	w := sessionWriter(&conn)
	if werr, err := w.transmit(frame{Ctx: 1, Dst: 1, Tag: 5, Val: make([]byte, 10), HasVal: true}, false); werr != nil || err != nil {
		t.Fatal(werr, err)
	}
	data := conn.Bytes()
	le.PutUint32(data[1+seqLen+25:], maxRawFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := newWireReader(bytes.NewReader(data)).readFrame()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a payload cut short after 10 of its announced bytes was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading 10 of %d announced payload bytes allocated %d bytes, want < 1 MiB", maxRawFrame, got)
	}
}

// TestMixedVersionWorld: the hub speaks one wire version and checks the one a
// hello announces. A worker announcing another — here a bare gob hello with
// Wire 0 — fails a world that is still forming, with an error naming the
// rank and both versions that reaches every rank already joined; dialed into
// a formed world it is a stray connection, closed and ignored.
func TestMixedVersionWorld(t *testing.T) {
	const refusal = "rank 1 announced wire version 0, this hub speaks version 3 only"
	dialV0 := func(t *testing.T, hub *Hub) net.Conn {
		conn, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := gob.NewEncoder(conn).Encode(hello{Rank: 1, Wire: 0}); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	t.Run("forming", func(t *testing.T) {
		hub, err := StartHub("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		joined := make(chan error, 1)
		go func() {
			joined <- JoinTCP(hub.Addr(), 0, 2, func(c *Comm) error { return nil })
		}()
		// Rank 0 is admitted first, so the abort has someone to reach.
		admitted := false
		for i := 0; i < 5000 && !admitted; i++ {
			time.Sleep(time.Millisecond)
			hub.mu.Lock()
			_, admitted = hub.conns[0]
			hub.mu.Unlock()
		}
		if !admitted {
			t.Fatal("rank 0 not admitted within 5 s")
		}
		dialV0(t, hub)
		err = runWithWatchdog(t, 10*time.Second, hub.Wait)
		if err == nil || !strings.Contains(err.Error(), refusal) {
			t.Fatalf("hub.Wait = %v, want %q", err, refusal)
		}
		err = runWithWatchdog(t, 10*time.Second, func() error { return <-joined })
		if !errors.Is(err, ErrWorldAborted) || !strings.Contains(err.Error(), refusal) {
			t.Fatalf("joined rank 0 got %v, want the world aborted with %q", err, refusal)
		}
	})

	t.Run("formed", func(t *testing.T) {
		hub, err := StartHub("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		formed, release := make(chan struct{}), make(chan struct{})
		errs := make(chan error, 2)
		for rank := 0; rank < 2; rank++ {
			go func(rank int) {
				errs <- JoinTCP(hub.Addr(), rank, 2, func(c *Comm) error {
					if rank == 1 {
						close(formed)
					}
					<-release
					return c.Barrier()
				})
			}(rank)
		}
		err = runWithWatchdog(t, 10*time.Second, func() error {
			<-formed
			conn := dialV0(t, hub)
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				return fmt.Errorf("stray v0 dial read %d bytes, %v; want the hub to close it unanswered", n, err)
			}
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			return hub.Wait()
		})
		if err != nil {
			t.Fatalf("a stray v0 dial disturbed a formed world: %v", err)
		}
	})
}

// FuzzWireReadFrame: the one decoder under arbitrary bytes. readFrame never
// panics and returns an error or a frame carrying what its header announced;
// and a clean frame with one bit (flip picks it) of its sequence number,
// its header, its CRC or its CRC-covered payload flipped is an error —
// *CorruptFrameError while the length field is intact — never a frame with
// other contents. The seeds are real transmit output and damaged copies of
// it.
func FuzzWireReadFrame(f *testing.F) {
	wire := func(send func(w *wireWriter) error) []byte {
		var conn bytes.Buffer
		if err := send(sessionWriter(&conn)); err != nil {
			f.Fatal(err)
		}
		return conn.Bytes()
	}
	transmit := func(fr frame) []byte {
		return wire(func(w *wireWriter) error {
			werr, err := w.transmit(fr, false)
			if werr != nil {
				return werr
			}
			return err
		})
	}
	damaged := func(b []byte, at int, x byte) []byte {
		b = append([]byte(nil), b...)
		b[at] ^= x
		return b
	}
	const lenAt = 1 + seqLen + 25 // the header's payload-length field
	small := transmit(frame{Ctx: 1, Src: 0, Dst: 1, Tag: 3, Val: []float64{3.14}, HasVal: true})
	streamed := transmit(frame{Ctx: 1, Src: 1, WSrc: 1, Dst: 0, Tag: 4, Val: make([]int64, replayFrameMax/8+1), HasVal: true})
	ack := wire(func(w *wireWriter) error { return w.writeAck(7) })
	tooLong := append([]byte(nil), small...)
	le.PutUint32(tooLong[lenAt:], maxRawFrame+1)
	// The longest length the reader believes, over ten bytes of payload: it
	// must cost what arrived, not a gigabyte.
	announced := transmit(frame{Ctx: 1, Dst: 1, Tag: 5, Val: make([]byte, 10), HasVal: true})
	le.PutUint32(announced[lenAt:], maxRawFrame)
	done := transmit(frame{Dst: ctrlDst, Tag: tagDone}) // a control frame, its payload empty
	// A gob-kind (rawNone) payload that is not gob: the reader hands it over
	// intact, and only its decoding fails.
	notGob := transmit(frame{Ctx: 1, Dst: 1, Tag: 6, Data: []byte("not gob")})
	fr, _, err := newWireReader(bytes.NewReader(notGob)).readFrame()
	var v int
	if err != nil || fr.Raw != rawNone || fr.decodeInto(&v) == nil {
		f.Fatalf("a rawNone frame of non-gob bytes: %+v, %v; want it read and its decoding refused", fr, err)
	}
	for _, seed := range [][]byte{
		small, streamed, ack, append(ack, small...), done, notGob,
		small[:20], small[:len(small)-3], // truncated header, truncated payload
		damaged(small, framePrefixLen-1, 0x10), // a flipped CRC byte
		damaged(done, len(done)-1, 0x01),       // FaultCorrupt's flip on an empty payload: the CRC's last byte
		damaged(small, 0, 0x01),                // an unknown kind byte
		tooLong,
	} {
		f.Add(seed, uint(0))
	}
	for _, seed := range [][]byte{small, streamed} {
		// One flip each in the addressing, the raw kind, the length (down,
		// then up), the CRC, the payload's first and last bits, and the
		// sequence number's first and ninth.
		const h = 8 * seqLen // the header's first bit
		last := uint(8*(len(seed)-1)) - 1
		for _, bit := range []uint{h + 3, h + 8*20 + 1, h + 8*24, h + 8*25 + 3, h + 8*25 + 12, h + 8*headerLen + 31, h + 8*(headerLen+crcLen), last, 0, 8} {
			f.Add(seed, bit)
		}
	}
	f.Add(announced, uint(0))

	// first skips the acks a stream opens with, as readFrame does, and reports
	// the payload length the frame after them announces: -1 if it is not a
	// frame with its prefix complete.
	first := func(data []byte) (rest []byte, n int) {
		for len(data) >= 1+seqLen && data[0] == kindAck {
			data = data[1+seqLen:]
		}
		if len(data) < framePrefixLen || data[0] != kindFrame {
			return data, -1
		}
		return data, int(le.Uint32(data[lenAt:]))
	}
	// read runs readFrame over data and checks a frame carries what it
	// announced: n bytes.
	read := func(t *testing.T, data []byte) (n int, err error) {
		_, n = first(data)
		fr, _, err := newWireReader(bytes.NewReader(data)).readFrame()
		if err != nil {
			return n, err
		}
		fr.release()
		if n >= 0 && len(fr.Data) != n {
			t.Fatalf("frame announced %d payload bytes, carries %d", n, len(fr.Data))
		}
		return n, nil
	}
	f.Fuzz(func(t *testing.T, data []byte, flip uint) {
		n, err := read(t, data)
		if err != nil || n < 0 {
			return
		}
		// A clean frame. Flip one of the bits its CRC covers, or of the
		// CRC: the sequence number and the header, then the CRC, then the
		// payload's two windows.
		clean, _ := first(data)
		covered := seqLen + headerLen + crcLen + n
		if n > 2*crcWindow {
			covered -= n - 2*crcWindow
		}
		bit := int(flip % uint(8*covered))
		at := 1 + bit/8
		if n > 2*crcWindow && at >= framePrefixLen+crcWindow {
			at += n - 2*crcWindow
		}
		_, err = read(t, damaged(clean[:framePrefixLen+n], at, 1<<(bit%8)))
		if err == nil {
			t.Fatalf("bit %d of byte %d flipped and the frame was accepted", bit%8, at)
		}
		var cerr *CorruptFrameError
		if lengthIntact := at < lenAt || at >= lenAt+4; lengthIntact && !errors.As(err, &cerr) {
			t.Fatalf("bit %d of byte %d flipped: %v, want *CorruptFrameError", bit%8, at, err)
		}
	})
}
