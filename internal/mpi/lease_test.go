package mpi

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The read lease of the TCP transport (lease.go), pinned without a clock:
// who dispatched how many frames, what completes with one of the two kinds
// of reader held off, and what an interrupted read may not cost.

// tcpOf returns the rank's TCP transport; the worlds below decorate nothing.
func tcpOf(c *Comm) *tcpTransport { return c.world.transport.(*tcpTransport) }

// withoutFallback holds the fallback reader off for the length of a test:
// its quiet interval never ends, so it reads only when drain calls for it.
func withoutFallback() Option { return func(c *config) { c.leaseQuiet = time.Hour } }

// TestLeaseReceivesReadTheirOwnFrames: over 1 000 RunTCP round trips at least
// nine data frames in ten are dispatched by the receive that waits for them,
// not by the fallback reader.
func TestLeaseReceivesReadTheirOwnFrames(t *testing.T) {
	const trips = 1000
	var byRecv, byFallback [2]int64
	err := RunTCP(2, func(c *Comm) error {
		peer, msg := 1-c.Rank(), []float64{0}
		for i := 0; i < trips; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, msg); err != nil {
					return err
				}
			}
			if _, err := c.Recv(peer, 0, &msg); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, 0, msg); err != nil {
					return err
				}
			}
		}
		l := &tcpOf(c).lease
		byRecv[c.Rank()], byFallback[c.Rank()] = l.byRecv.Load(), l.byFallback.Load()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range byRecv {
		if n := byRecv[r] + byFallback[r]; n != trips {
			t.Errorf("rank %d dispatched %d data frames, want %d", r, n, trips)
		}
		if byRecv[r] < trips*9/10 {
			t.Errorf("rank %d: the blocked receive dispatched %d of %d frames and the fallback %d, want at least 90%% by the receive",
				r, byRecv[r], trips, byFallback[r])
		}
	}
}

// TestLeaseFallbackDrainsEagerSends: buffered-mode Send keeps its promise to
// a peer that is not receiving. Rank 1 sits on a Go channel, outside any MPI
// call, until rank 0 has sent it 64 MiB — far more than the sockets between
// them hold — so every one of those sends returned because rank 1's fallback
// reader moved the frames to the unexpected queue.
func TestLeaseFallbackDrainsEagerSends(t *testing.T) {
	const n, elems = 64, 1 << 17
	allSent := make(chan struct{})
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				buf := make([]float64, elems)
				for i := 0; i < n; i++ {
					buf[0], buf[elems-1] = float64(i), float64(-i)
					if err := c.Send(1, 0, buf); err != nil {
						return err
					}
				}
				close(allSent)
				return nil
			}
			<-allSent
			var got []float64
			for i := 0; i < n; i++ {
				if _, err := c.Recv(0, 0, &got); err != nil {
					return err
				}
				if len(got) != elems || got[0] != float64(i) || got[elems-1] != float64(-i) {
					return fmt.Errorf("message %d arrived as %d values stamped %v, %v", i, len(got), got[0], got[len(got)-1])
				}
			}
			if l := &tcpOf(c).lease; l.byFallback.Load() == 0 {
				return fmt.Errorf("the fallback dispatched none of the %d frames (receives: %d)", n, l.byRecv.Load())
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeasePassesBetweenPostedReceives holds the fallback off and blocks an
// Irecv and then a Recv on rank 1, so the Irecv's goroutine is the reader.
// Their messages are sent only once both are posted, in either order. When
// the Recv's comes first the reader hands it over and reads on; when the
// Irecv's comes first the reader leaves with it and must wake the Recv to
// take the lease, or nothing ever reads the second message.
func TestLeasePassesBetweenPostedReceives(t *testing.T) {
	const tagIrecv, tagRecv = 1, 2
	for _, order := range [][2]int{{tagRecv, tagIrecv}, {tagIrecv, tagRecv}} {
		bothPosted := make(chan error, 1)
		err := runWithWatchdog(t, 30*time.Second, func() error {
			return RunTCP(2, func(c *Comm) error {
				if c.Rank() == 0 {
					if err := <-bothPosted; err != nil {
						return err
					}
					for _, tag := range order {
						if err := c.Send(1, tag, tag*10); err != nil {
							return err
						}
					}
					return nil
				}
				box := c.mailbox()
				var a, b int
				req := c.Irecv(0, tagIrecv, &a)
				if err := waitPosted(box, 1); err != nil {
					bothPosted <- err
					return err
				}
				go func() { bothPosted <- waitPosted(box, 2) }()
				if _, err := c.Recv(0, tagRecv, &b); err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				if a != tagIrecv*10 || b != tagRecv*10 {
					return fmt.Errorf("Irecv got %d and Recv got %d", a, b)
				}
				if l := &tcpOf(c).lease; l.byFallback.Load() != 0 || l.byRecv.Load() != 2 {
					return fmt.Errorf("the fallback dispatched %d frames and the receives %d, want 0 and 2", l.byFallback.Load(), l.byRecv.Load())
				}
				return nil
			}, withoutFallback())
		})
		if err != nil {
			t.Fatalf("messages sent in tag order %v: %v", order, err)
		}
	}
}

// TestLeaseInterruptStormTearsNoFrame streams 1 MiB frames at a receive that
// is woken without cause as fast as a goroutine can poke its mailbox. An
// interrupt lands only between frames, so every payload arrives whole, and it
// never looks like a broken connection: with a suspicion window armed, a read
// that failed on the moved deadline would redial, and nothing does.
func TestLeaseInterruptStormTearsNoFrame(t *testing.T) {
	const n, elems = 48, 1 << 17
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			defer func() {
				tr := tcpOf(c)
				tr.mu.Lock()
				if tr.gen != 0 {
					t.Errorf("rank %d: the connection generation is %d, want 0: an interrupt was taken for a broken connection", c.Rank(), tr.gen)
				}
				tr.mu.Unlock()
			}()
			if c.Rank() == 0 {
				buf := make([]float64, elems)
				for i := 0; i < n; i++ {
					for j := range buf {
						buf[j] = float64(i*elems + j)
					}
					if err := c.Send(1, 0, buf); err != nil {
						return err
					}
				}
				_, err := c.Recv(1, 1, nil) // hold the world open until rank 1 has checked everything
				return err
			}
			var stop atomic.Bool
			stormed := make(chan int)
			go func() {
				pokes := 0
				for box := c.mailbox(); !stop.Load(); runtime.Gosched() {
					box.poke()
					pokes++
				}
				stormed <- pokes
			}()
			var got []float64
			var rerr error
			for i := 0; i < n && rerr == nil; i++ {
				if _, rerr = c.Recv(0, 0, &got); rerr != nil {
					break
				}
				if len(got) != elems {
					rerr = fmt.Errorf("frame %d arrived with %d values", i, len(got))
				}
				for j := 0; j < len(got) && rerr == nil; j++ {
					if got[j] != float64(i*elems+j) {
						rerr = fmt.Errorf("frame %d value %d reads %v", i, j, got[j])
					}
				}
			}
			stop.Store(true)
			if pokes := <-stormed; pokes < n {
				t.Errorf("only %d pokes against %d frames: not a storm", pokes, n)
			}
			if rerr != nil {
				return rerr
			}
			return c.Send(0, 1, 0)
		}, WithHubOptions(HubSuspicion(5*time.Second)))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExchangeStepsKeepAReader: an exchange step posts its receive before
// its send, so for a while a receive is posted that nobody sleeps in. The lease
// is never passed to it (passLeaseLocked), or the mailbox would be left to the
// fallback reader: over 200 AlltoallvInto steps of 64 KiB at np = 2 the fallback
// dispatches a handful of the data frames, as it did when the receive was
// posted after the send (0 or 1 as a rule; 3 to 18 under the race detector,
// where a step can outlast the fallback's quiet millisecond, before and after).
func TestLeaseExchangeStepsKeepAReader(t *testing.T) {
	const steps, per = 200, 8 << 10
	var byRecv, byFallback [2]int64
	err := RunTCP(2, func(c *Comm) error {
		counts, send, recv := []int{per, per}, make([]float64, 2*per), make([]float64, 2*per)
		for i := 0; i < steps; i++ {
			if err := AlltoallvInto(c, send, counts, recv, counts); err != nil {
				return err
			}
		}
		l := &tcpOf(c).lease
		byRecv[c.Rank()], byFallback[c.Rank()] = l.byRecv.Load(), l.byFallback.Load()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range byRecv {
		if n := byRecv[r] + byFallback[r]; n != steps || byFallback[r] > steps/4 {
			t.Errorf("rank %d: %d data frames dispatched, %d of them by the fallback reader; want %d and at most %d",
				r, n, byFallback[r], steps, steps/4)
		}
	}
}

// TestLeasePassSkipsAReceiveNobodyAwaits: a receive posted ahead of its await
// is first in the posted queue, one operation reads and another sleeps behind
// it. When the reader leaves, the lease goes to the sleeper — a wake-up left
// with the posted-ahead receive would be read by nobody, and the mailbox would
// have no reader.
func TestLeasePassSkipsAReceiveNobodyAwaits(t *testing.T) {
	m := newMailbox()
	fp := newFakePump(m)
	m.pump = fp
	var ahead frame
	w, err := m.post("Recv", 0, 1, 1, 0, nil, &ahead)
	if w == nil || err != nil {
		t.Fatalf("post = %v, %v: want a posted receive", w, err)
	}
	held := func(want bool) {
		t.Helper()
		for stop := time.Now().Add(10 * time.Second); fp.idle() == want; runtime.Gosched() {
			if time.Now().After(stop) {
				t.Fatalf("lease held = %v, want %v", !want, want)
			}
		}
	}
	res := make(chan error, 2)
	for src := 2; src <= 3; src++ { // the first takes the lease and reads, the second sleeps
		go func() {
			_, err := m.take(0, src, src)
			res <- err
		}()
		awaitPosted(t, m, src)
		held(true)
	}
	fp.send(frame{Src: 2, Tag: 2, Data: []byte("2")})
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	held(true) // by the sleeper now
	fp.send(frame{Src: 3, Tag: 3, Data: []byte("3")})
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	held(false)
	fp.send(frame{Src: 1, Tag: 1, Data: []byte("1")})
	if err := m.await(w, 0, nil, nil, &ahead); err != nil || string(ahead.Data) != "1" {
		t.Fatalf("await = %v with %q, want the frame sent last", err, ahead.Data)
	}
}

// TestLeaseFallbackKeepsOneTimer: the fallback reader's quiet-interval wait
// reuses the lease's one timer, so taking the lease and giving it back
// allocates nothing, however many times it cycles and however slowly.
func TestLeaseFallbackKeepsOneTimer(t *testing.T) {
	l := &readLease{quiet: 20 * time.Microsecond, nudge: make(chan struct{}, 1)}
	cycle := func() {
		if !l.acquireFallback() {
			t.Fatal("the fallback found an open lease closed")
		}
		l.release()
	}
	cycle() // the first cycle makes the timer
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("one fallback acquire/release cycle allocates %v objects, want 0", n)
	}
}
