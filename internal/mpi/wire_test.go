package mpi

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
)

// Wire-layer tests: the raw codec's round trips, kind-byte framing
// interleaved with a live gob stream, the version-mismatch conversions, and
// the allocation discipline the pooled buffers buy.

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

// TestWireInterleavedFrames: one connection carries gob frames and raw
// frames back to back; the reader demultiplexes by kind byte without either
// stream corrupting the other — the property that lets typed payloads share
// a connection with control traffic.
func TestWireInterleavedFrames(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn, wireVersion)
	rd := newWireReader(&conn)
	rd.v1 = true

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
		if err := w.writeFrame(f); err != nil {
			t.Fatal(err)
		}
	}

	var s string
	f0, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.decodeInto(&s); err != nil || s != "control" {
		t.Fatalf("frame 0: %q, %v", s, err)
	}

	f1, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f1.Raw != rawFloat64 || f1.Tag != 4 || f1.Src != 0 {
		t.Fatalf("frame 1 header: %+v", f1)
	}
	var gotF []float64
	if err := f1.decodeInto(&gotF); err != nil || !reflect.DeepEqual(gotF, floats) {
		t.Fatalf("frame 1: %v, %v", gotF, err)
	}

	f2, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Raw != rawInt || f2.Src != 2 || f2.Tag != 5 {
		t.Fatalf("frame 2 header: %+v", f2)
	}
	var gotI []int
	if err := f2.decodeInto(&gotI); err != nil || !reflect.DeepEqual(gotI, ints) {
		t.Fatalf("frame 2: %v, %v", gotI, err)
	}

	f3, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
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
	w := newWireWriter(&conn, wireVersion)
	rd := newWireReader(&conn)
	rd.v1 = true

	sent := []float64{1, 2.5, -3} // exactly representable in float32
	if err := w.writeFrame(frame{Ctx: 1, Tag: 1, Val: sent, HasVal: true}); err != nil {
		t.Fatal(err)
	}
	f, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	var got []float32
	if err := f.decodeInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, 2.5, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestWireLegacyWriterConverts: a raw payload forwarded toward a v0 peer is
// re-encoded as plain gob — the hub's version-mismatch path — and an
// unframed reader consumes it.
func TestWireLegacyWriterConverts(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn, 0) // legacy peer: no kind bytes on this stream
	rd := newWireReader(&conn)   // rd.v1 stays false

	ints := []int{9, 8, -7}
	raw := make([]byte, rawSizeOf(ints))
	rawEncode(raw, ints)
	if err := w.writeFrame(frame{Ctx: 2, Src: 1, Dst: 0, Tag: 9, Data: raw, Raw: rawInt}); err != nil {
		t.Fatal(err)
	}
	f, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Raw != rawNone {
		t.Fatalf("legacy stream carried a raw frame: %+v", f)
	}
	var got []int
	if err := f.decodeInto(&got); err != nil || !reflect.DeepEqual(got, ints) {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestWireRawSendZeroAlloc pins the acceptance bar for the typed TCP path:
// once the buffer freelist is warm, a steady-state send+receive of a
// whitelisted slice allocates zero amortized heap bytes per message. The
// loopback is a real OS pipe, so the measured path is the production one:
// bufio flush, kind demultiplex, pooled payload buffer, in-place decode. It
// holds on wire v1 and on wire v2, the default, where the sender is the
// session's captured path (encode into a pooled buffer, write, release on
// ack) and the reader also takes a sequence number and checks a CRC.
func TestWireRawSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race-detector instrumentation")
	}
	for _, ver := range []int{wireVersion, wireVersion2} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) { testWireRawSendZeroAlloc(t, ver) })
	}
}

func testWireRawSendZeroAlloc(t *testing.T, ver int) {
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

	w := newWireWriter(pw, ver)
	rd := newWireReader(pr)
	rd.v1, rd.v2 = true, ver >= wireVersion2

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
		if ver < wireVersion2 {
			return w.writeFrame(f)
		}
		seq++
		buf, err := w.encodeFrame(f, seq)
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
		if err == nil && ver >= wireVersion2 && got != seq {
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

// TestMixedVersionWorld: one v1 rank and one legacy (v0) rank share a hub.
// Typed slices must flow both ways — the hub converting raw frames to gob
// for the legacy destination — and a collective must complete across the
// version boundary.
func TestMixedVersionWorld(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	main := func(c *Comm) error {
		mine := []float64{float64(c.Rank()), 1, 2}
		if err := c.Send(1-c.Rank(), 3, mine); err != nil {
			return err
		}
		var theirs []float64
		if _, err := c.Recv(1-c.Rank(), 3, &theirs); err != nil {
			return err
		}
		if want := []float64{float64(1 - c.Rank()), 1, 2}; !reflect.DeepEqual(theirs, want) {
			return fmt.Errorf("rank %d received %v, want %v", c.Rank(), theirs, want)
		}
		got, err := AllreduceSlice(c, []float64{1, 2, 3}, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		if want := []float64{2, 4, 6}; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d reduced %v, want %v", c.Rank(), got, want)
		}
		return nil
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = JoinTCP(hub.Addr(), 0, 2, main) // speaks v1
	}()
	go func() {
		defer wg.Done()
		errs[1] = JoinTCP(hub.Addr(), 1, 2, main, withWireLegacy()) // speaks v0
	}()
	wg.Wait()
	if err := hub.Wait(); err != nil {
		t.Fatalf("hub: %v", err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestWithTCPNoDelay: the knob must be accepted in both positions and leave
// message semantics untouched; a disabled-Nagle world still delivers typed
// payloads intact.
func TestWithTCPNoDelay(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		t.Run(fmt.Sprintf("%v", enabled), func(t *testing.T) {
			err := RunTCP(2, func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 1, []int32{1, 2, 3})
				}
				var got []int32
				if _, err := c.Recv(0, 1, &got); err != nil {
					return err
				}
				if !reflect.DeepEqual(got, []int32{1, 2, 3}) {
					return fmt.Errorf("got %v", got)
				}
				return nil
			}, WithTCPNoDelay(enabled))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
