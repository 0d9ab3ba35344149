package mpi

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A streamed TCP frame is read into the receive that waits for it
// (wireReader.land → mailbox.claim → handOver), pinned without a clock: which
// frames land and which are buffered, what a payload that never arrives whole
// leaves behind, and that landing matches as delivering does.

const landElems = 1 << 17 // 1 MiB of float64

// landCounts returns the rank's data frames that landed and that were
// buffered.
func landCounts(c *Comm) (landed, buffered int64) {
	l := &tcpOf(c).lease
	return l.landed.Load(), l.buffered.Load()
}

// tellWhenPosted sends rank 0 a go-ahead under tag once n operations are
// posted on the calling rank's mailbox: what rank 0 then sends finds its
// receive waiting.
func tellWhenPosted(c *Comm, n, tag int) {
	go func() {
		if waitPosted(c.mailbox(), n) == nil {
			_ = c.Send(0, tag, 0)
		}
	}()
}

// pingPong runs trips round trips of msg between ranks 0 and 1 under tag,
// checking the echo's first and last value and its Status on both ranks.
func pingPong(c *Comm, trips, tag int, msg []float64) error {
	n := len(msg)
	var got []float64
	for i := 0; i < trips; i++ {
		if c.Rank() == 0 {
			msg[0], msg[n-1] = float64(i), float64(i)
			if err := c.Send(1, tag, msg); err != nil {
				return err
			}
		}
		st, err := c.Recv(1-c.Rank(), tag, &got)
		if err != nil {
			return err
		}
		if st.Bytes != 8*n || st.Source != 1-c.Rank() || st.Tag != tag {
			return fmt.Errorf("trip %d: %v, want %d bytes from rank %d under tag %d", i, st, 8*n, 1-c.Rank(), tag)
		}
		if len(got) != n || got[0] != float64(i) || got[n-1] != float64(i) {
			return fmt.Errorf("trip %d: %d values stamped %v, %v", i, len(got), got[0], got[len(got)-1])
		}
		if c.Rank() == 1 {
			if err := c.Send(0, tag, got); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestLandingStreamedFramesOnly: of 100 round trips of 8 bytes none lands; of
// 100 of 1 MiB at least 99 land on each rank (the first may beat its receive),
// and a megabyte sent to a receive known to be posted always does, taking no
// wire buffer at the rank; a payload of exactly replayFrameMax bytes is
// buffered and one element more lands: the threshold is the sender's, the
// frames it streams and never captures. Status.Bytes is the payload's either
// way, and a landed round trip allocates what a buffered one did: the two
// slices boxed by their callers.
func TestLandingStreamedFramesOnly(t *testing.T) {
	const trips = 100
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if err := pingPong(c, trips, 0, make([]float64, 1)); err != nil {
				return err
			}
			if landed, buffered := landCounts(c); landed != 0 || buffered != trips {
				return fmt.Errorf("rank %d: %d of %d 8-byte frames landed (%d buffered), want none", c.Rank(), landed, trips, buffered)
			}
			if err := pingPong(c, trips, 1, make([]float64, landElems)); err != nil {
				return err
			}
			landed, buffered := landCounts(c)
			if landed < trips-1 || landed+buffered != 2*trips {
				return fmt.Errorf("rank %d: %d of %d 1 MiB frames landed (%d frames buffered in all), want at least %d",
					c.Rank(), landed, trips, buffered, trips-1)
			}
			// Posted before it is sent, a frame lands and takes no buffer at the
			// rank: eight of eight, with nothing left to the scheduler.
			for i := 0; i < 8; i++ {
				if c.Rank() == 0 {
					if _, err := c.Recv(1, 2, nil); err != nil {
						return err
					}
					if err := c.Send(1, 2, make([]float64, landElems)); err != nil {
						return err
					}
					continue
				}
				tellWhenPosted(c, 1, 2)
				var got []float64
				if st, err := c.Recv(0, 2, &got); err != nil || st.Bytes != 8*landElems {
					return fmt.Errorf("posted receive %d: %v, %v", i, st, err)
				}
			}
			if l, b := landCounts(c); c.Rank() == 1 && (l != landed+8 || b != buffered) {
				return fmt.Errorf("of 8 megabytes sent to a posted receive %d landed and %d were buffered", l-landed, b-buffered)
			}
			for _, edge := range []struct {
				elems int
				lands int64
			}{{replayFrameMax / 8, 0}, {replayFrameMax/8 + 1, 1}} {
				before, _ := landCounts(c)
				if err := pingPong(c, 1, 3, make([]float64, edge.elems)); err != nil {
					return err
				}
				if after, _ := landCounts(c); after-before != edge.lands {
					return fmt.Errorf("rank %d: a %d-byte payload landed %d times, want %d", c.Rank(), 8*edge.elems, after-before, edge.lands)
				}
			}
			if raceEnabled {
				return nil // allocation counts are not stable under the race detector
			}
			if c.Rank() == 1 {
				return echoFloats(c)
			}
			send, recv := make([]float64, landElems), []float64(nil)
			var opErr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := c.Send(1, 0, send); err != nil {
					opErr = err
				}
				if _, err := c.Recv(1, 0, &recv); err != nil {
					opErr = err
				}
			})
			if allocs > 2 && opErr == nil {
				opErr = fmt.Errorf("a landed 1 MiB round trip allocates %v objects, want <= 2", allocs)
			}
			if err := c.Send(1, 1, send); err != nil {
				return err
			}
			return opErr
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLandingTCP8BRoundTripAllocations pins what a session may cost a frame,
// at both ends of the size range. A captured frame's buffer comes back to its
// own session with the peer's ack (sendSession.frameBuf), so the steady-state
// 8-byte RunTCP round trip allocates the two slices its callers box and at
// most one object more — not a buffer per frame because four sessions' ack
// windows have emptied a free list of 32. A streamed megabyte is charged a
// sequence number, a header and a checksum and no buffer: the same objects,
// under a KiB allocated for two megabytes moved, and nothing of it in the
// sender's replay window when Send returns (stream-1MiB-tcp is the gate row
// that times it).
func TestLandingTCP8BRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, elems := range []int{1, landElems} {
		const trips = 100
		var allocs float64
		var bytes uint64
		captured := 0
		err := RunTCP(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return echoFloats(c)
			}
			send, recv := make([]float64, elems), []float64(nil)
			var opErr error
			tr := tcpOf(c)
			trip := func() {
				if err := c.Send(1, 0, send); err != nil {
					opErr = err
				}
				tr.mu.Lock()
				captured = max(captured, tr.send.replayBytes)
				tr.mu.Unlock()
				if _, err := c.Recv(1, 0, &recv); err != nil {
					opErr = err
				}
			}
			for i := 0; i < 4*ackEvery; i++ { // every session has been acked and holds its spares
				trip()
			}
			allocs = testing.AllocsPerRun(5*trips, trip)
			// The best of three batches, as TestLocalRoundTripAllocations
			// takes it: a frame that beats its receive is buffered whole.
			bytes = math.MaxUint64
			for batch := 0; batch < 3; batch++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < trips; i++ {
					trip()
				}
				runtime.ReadMemStats(&after)
				bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/trips)
			}
			if err := c.Send(1, 1, send[:1]); err != nil {
				return err
			}
			return opErr
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 3 || bytes >= 1<<10 {
			t.Errorf("steady-state RunTCP round trip of %d values allocates %v objects and %d bytes, want <= 3 objects and < 1 KiB", elems, allocs, bytes)
		}
		// The 8-byte frames are there to be seen, so the probe is not blind.
		if streamed := 8*elems > replayFrameMax; streamed != (captured == 0) {
			t.Errorf("frames of %d values (streamed: %v) held at most %d bytes of their sender's replay window; streamed frames hold none, captured ones some",
				elems, streamed, captured)
		}
	}
}

// seamReader is a rank's hub connection with a seam in it: left bytes pass,
// then hit is closed (if there is one) and every Read waits for gate (if there
// is one) and fails with err (if there is one).
type seamReader struct {
	r         io.Reader
	left      int
	hit, gate chan struct{}
	err       error
}

func (s *seamReader) Read(p []byte) (int, error) {
	if s.left == 0 {
		if s.hit != nil {
			close(s.hit)
			s.hit = nil
		}
		if s.gate != nil {
			<-s.gate
			s.gate = nil
		}
		if s.err != nil {
			return 0, s.err
		}
		return s.r.Read(p)
	}
	if len(p) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= n
	return n, err
}

// cutReads puts the seam into the calling rank's hub connection. Nothing may
// be reading it: the callers hold the fallback off and have no receive
// blocked, and no frame for this rank is under way until it says so.
func cutReads(c *Comm, s *seamReader) {
	tr := tcpOf(c)
	tr.mu.Lock()
	s.r = tr.conn
	tr.rd.resetConn(s)
	tr.mu.Unlock()
}

var errSeam = errors.New("seam: connection cut mid-payload")

// hubOf captures the hub of a RunTCP world through the start-broadcast seam,
// which runs after a rank may have started: readers spin until it is there.
func hubOf(h *atomic.Pointer[Hub]) Option {
	return WithHubOptions(func(o *hubOptions) { o.startWritten = func(hub *Hub, _ bool) { h.Store(hub) } })
}

// TestLandingLostPayloadFailsTheReceive: the receive is claimed, half of its
// megabyte arrives and the connection fails — or all of it arrives with one
// bit flipped on the hub → rank leg. Recv returns the world's typed error
// wrapping the cause, never success; the receive is back on the posted queue
// when it is woken and off it when it returns, and its waiter is recycled as
// after any blocking receive. Under WithRecovery the rank that lost its
// connection is the failure and its peer sees *RankFailedError.
func TestLandingLostPayloadFailsTheReceive(t *testing.T) {
	const half = v2RawPrefixLen + 8*landElems/2
	for _, tc := range []struct {
		name    string
		cut     bool
		recover bool
		is      func(error) bool
	}{
		{"half a payload", true, false, func(err error) bool { return errors.Is(err, ErrWorldAborted) && errors.Is(err, errSeam) }},
		{"half a payload under recovery", true, true, func(err error) bool { return errors.Is(err, errSeam) }},
		{"a flipped bit from the hub", false, false, func(err error) bool {
			var cerr *CorruptFrameError
			return errors.Is(err, ErrWorldAborted) && errors.As(err, &cerr) && cerr.Dst == 1 && cerr.Tag == 5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hub atomic.Pointer[Hub]
			opts := []Option{withoutFallback(), hubOf(&hub)}
			if tc.recover {
				opts = append(opts, WithRecovery())
			}
			var recvErr, peerErr error
			var claimedBack bool
			_ = runWithWatchdog(t, 60*time.Second, func() error {
				return RunTCP(2, func(c *Comm) error {
					if c.Rank() == 0 {
						if _, err := c.Recv(1, 0, nil); err != nil { // rank 1 is ready
							return err
						}
						if err := c.Send(1, 5, make([]float64, landElems)); err != nil {
							return err
						}
						_, peerErr = c.Recv(1, 6, nil) // never sent: ends with the world, or with rank 1
						return nil
					}
					box := c.mailbox()
					if tc.cut {
						cutReads(c, &seamReader{left: half, err: errSeam})
					} else {
						for hub.Load() == nil {
							runtime.Gosched()
						}
						hub.Load().mu.Lock()
						hc := hub.Load().conns[1]
						hub.Load().mu.Unlock()
						hc.mu.Lock()
						hc.w.corruptNext = true
						hc.mu.Unlock()
					}
					if err := c.Send(0, 0, 0); err != nil {
						return err
					}
					got := make([]float64, 0, landElems)
					_, recvErr = c.Recv(0, 5, &got)
					box.mu.Lock()
					claimedBack = len(box.posted) == 0 && len(box.free) == 1 && !box.free[0].busy && box.free[0].dst == nil
					box.mu.Unlock()
					if l, _ := landCounts(c); l != 0 {
						return fmt.Errorf("%d frames landed, want 0: the payload failed its check", l)
					}
					return recvErr
				}, opts...)
			})
			if recvErr == nil || !tc.is(recvErr) {
				t.Errorf("Recv of the lost payload returned %v", recvErr)
			}
			if !claimedBack {
				t.Error("after the failed Recv the posted queue is not empty or its waiter was not recycled clean")
			}
			var rfe *RankFailedError
			if tc.recover && (!errors.As(peerErr, &rfe) || len(rfe.Ranks) != 1 || rfe.Ranks[0] != 1) {
				t.Errorf("under recovery the survivor's Recv returned %v, want *RankFailedError naming rank 1", peerErr)
			} else if !tc.recover && !errors.Is(peerErr, ErrWorldAborted) {
				t.Errorf("the peer's Recv returned %v, want ErrWorldAborted", peerErr)
			}
		})
	}
}

// TestLandingMatchesAsDeliverDoes: an Irecv and a Recv under different tags
// whose megabytes are sent in the other order each land in their own slice
// (the reader lands the other receive's frame, then its own); receives with
// wildcards land; and a *[]int64 receive of a []float64 message does not land
// and ends exactly as the same receive of a message under the threshold.
func TestLandingMatchesAsDeliverDoes(t *testing.T) {
	stamped := func(tag int) []float64 {
		s := make([]float64, landElems)
		s[0], s[landElems-1] = float64(tag), float64(-tag)
		return s
	}
	check := func(what string, tag int, got []float64) error {
		if len(got) != landElems || got[0] != float64(tag) || got[landElems-1] != float64(-tag) {
			return fmt.Errorf("%s holds %d values stamped %v, %v, want the message sent under tag %d", what, len(got), got[0], got[len(got)-1], tag)
		}
		return nil
	}
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				for _, tag := range []int{2, 1, 3, 4} { // each batch once rank 1 has posted for it
					if tag != 1 {
						if _, err := c.Recv(1, 0, nil); err != nil {
							return err
						}
					}
					if err := c.Send(1, tag, stamped(tag)); err != nil {
						return err
					}
				}
				for _, elems := range []int{8, landElems} {
					if _, err := c.Recv(1, 0, nil); err != nil {
						return err
					}
					if err := c.Send(1, 5, make([]float64, elems)); err != nil {
						return err
					}
				}
				return nil
			}
			box := c.mailbox()
			var a, b []float64
			req := c.Irecv(0, 1, &a)
			if err := waitPosted(box, 1); err != nil {
				return err
			}
			tellWhenPosted(c, 2, 0)
			if _, err := c.Recv(0, 2, &b); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if err := errors.Join(check("the Irecv's slice", 1, a), check("the Recv's slice", 2, b)); err != nil {
				return err
			}
			for tag, recv := range []func(v any) (Status, error){
				3: func(v any) (Status, error) { return c.Recv(AnySource, 3, v) },
				4: func(v any) (Status, error) { return c.Recv(0, AnyTag, v) },
			} {
				if recv == nil {
					continue
				}
				tellWhenPosted(c, 1, 0)
				st, err := recv(&a)
				if err != nil {
					return err
				}
				if st.Source != 0 || st.Tag != tag {
					return fmt.Errorf("wildcard receive: %v, want rank 0 under tag %d", st, tag)
				}
				if err := check("the wildcard receive's slice", tag, a); err != nil {
					return err
				}
			}
			if landed, _ := landCounts(c); landed != 4 {
				return fmt.Errorf("%d of the 4 posted megabyte receives landed", landed)
			}
			var texts [2]string
			for i := range texts {
				tellWhenPosted(c, 1, 0)
				var wrong []int64
				st, err := c.Recv(0, 5, &wrong)
				if err == nil {
					return fmt.Errorf("a []float64 message decoded into *[]int64: %v", st)
				}
				texts[i] = err.Error()
			}
			if texts[0] != texts[1] {
				return fmt.Errorf("the mismatched receive of a streamed frame fails with %q, of a small one with %q", texts[1], texts[0])
			}
			if landed, _ := landCounts(c); landed != 4 {
				return fmt.Errorf("a []float64 frame landed in a *[]int64 receive")
			}
			return nil
		}, withoutFallback())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLandingDeadlineWaitsForTheRead is the ROADMAP 2g edge on the wire: the
// world's deadline passes while a claimed receive's payload is held half read.
// The receive neither reports nor returns while its destination is being
// written, and when the rest arrives it has its message: a frame handed over
// wins over a deadline, as on the local path.
func TestLandingDeadlineWaitsForTheRead(t *testing.T) {
	const budget = 100 * time.Millisecond
	hit, gate, over := make(chan struct{}), make(chan struct{}), make(chan struct{})
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if _, err := c.Recv(1, 0, nil); err != nil {
					return err
				}
				if err := c.Send(1, 5, make([]float64, landElems)); err != nil {
					return err
				}
				<-over // hold the world open, outside any receive the deadline could catch
				return nil
			}
			defer close(over)
			cutReads(c, &seamReader{left: v2RawPrefixLen + 8*landElems/2, hit: hit, gate: gate})
			if err := c.Send(0, 0, 0); err != nil {
				return err
			}
			res := make(chan error, 1)
			var got []float64
			go func() {
				_, err := c.Recv(0, 5, &got)
				res <- err
			}()
			select {
			case <-hit: // the receive is claimed and half its payload is in its slice
			case err := <-res:
				return fmt.Errorf("the receive returned (%v) before its frame came", err)
			}
			for stop := time.Now().Add(3 * budget); time.Now().Before(stop); {
				runtime.Gosched() // the deadline passes and its timer wakes the receive
			}
			select {
			case err := <-res:
				return fmt.Errorf("the receive returned (%v) with half its payload read", err)
			default:
			}
			if err := c.world.abortErr(); err != nil {
				return fmt.Errorf("the deadline fired on a claimed receive: %v", err)
			}
			close(gate)
			if err := <-res; err != nil {
				return fmt.Errorf("the receive returned %v once its payload was whole, want the message", err)
			}
			if landed, _ := landCounts(c); landed != 1 || len(got) != landElems {
				return fmt.Errorf("%d frames landed and the destination holds %d values", landed, len(got))
			}
			return nil
		}, withoutFallback(), WithDeadline(budget))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLandingClaimIsDeliversClaim drives mailbox.claim as a reader does, with
// three receives posted in order: one whose destination cannot take the bytes
// as they are, one under AnyTag with a deadline, one exact. The earliest match
// is the one claimed, or none: a frame whose earliest match cannot take it is
// not offered to a later one, and that receive keeps its place. A claimed
// receive's deadline waits for the read to end; given back, the receive is
// first in line again, is woken, and then reports its deadline.
func TestLandingClaimIsDeliversClaim(t *testing.T) {
	const budget = 2 * time.Millisecond
	m := newMailbox()
	var timeouts atomic.Int32
	onTimeout := func() error {
		timeouts.Add(1)
		return ErrDeadlineExceeded
	}
	var wrong []int64
	var any5, tag5 []byte
	type result struct {
		f   frame
		err error
	}
	post := func(tag int, timeout time.Duration, dst any, n int) chan result {
		res := make(chan result, 1)
		go func() {
			var r result
			r.err = m.wait("Recv", 0, 1, tag, timeout, onTimeout, nil, dst, &r.f)
			res <- r
		}()
		awaitPosted(t, m, n)
		return res
	}
	resWrong := post(5, 0, &wrong, 1)
	resAny := post(AnyTag, budget, &any5, 2)
	resTag := post(5, 0, &tag5, 3)

	f := frame{Src: 1, Tag: 5, Raw: rawBytes}
	if w, into := m.claim(&f, 3); w != nil || into != nil {
		t.Fatal("a frame whose earliest receive wants another type was claimed for a later one")
	}
	m.mu.Lock()
	if len(m.posted) != 3 || m.posted[0].dst != any(&wrong) {
		t.Fatalf("the receive that could not take the bytes lost its place: %d posted", len(m.posted))
	}
	m.mu.Unlock()
	f.Data = []byte{1, 2, 3}
	m.deliver(f)
	if r := <-resWrong; r.err != nil || r.f.landed || len(r.f.Data) != 3 {
		t.Fatalf("the buffered frame reached its receive as %+v, %v", r.f, r.err)
	}

	g := frame{Src: 1, Tag: 5, Raw: rawBytes}
	w, into := m.claim(&g, 3)
	if w == nil || w.tag != AnyTag || len(into) != 3 || &into[0] != &any5[0] {
		t.Fatalf("claim returned %+v with %d bytes of storage, want the AnyTag receive's own", w, len(into))
	}
	for stop := time.Now().Add(3 * budget); time.Now().Before(stop); {
		runtime.Gosched() // the deadline passes and its timer wakes the receive
	}
	select {
	case r := <-resAny:
		t.Fatalf("the claimed receive returned (%v) while its payload was being read", r.err)
	default:
	}
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("the deadline fired %d times on a claimed receive", n)
	}
	m.unclaim(w)
	if r := <-resAny; !errors.Is(r.err, ErrDeadlineExceeded) || timeouts.Load() != 1 {
		t.Fatalf("given back past its deadline, the receive returned %v after %d deadline reports", r.err, timeouts.Load())
	}

	w, into = m.claim(&g, 3)
	if w == nil || w.tag != 5 {
		t.Fatalf("the retransmission claimed %+v, want the receive on tag 5", w)
	}
	copy(into, []byte{7, 8, 9})
	g.Data, g.landed = into, true
	if !m.handOver(g, w) {
		t.Fatal("handOver did not report the receive it completed")
	}
	r := <-resTag
	if r.err != nil || !r.f.landed || string(tag5) != "\x07\x08\x09" || r.f.status().Bytes != 3 {
		t.Fatalf("the landed frame reached its receive as %+v, %v with destination %v", r.f, r.err, tag5)
	}
	r.f.release() // a landed frame has no buffer to give back
	if err := r.f.decodeInto(&tag5); err != nil || string(tag5) != "\x07\x08\x09" {
		t.Fatalf("decoding a landed frame: %v, destination %v", err, tag5)
	}
}
