package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// Clock-free pins on the small local message: what one round trip and the
// mailbox under it allocate, and whom an arrival wakes.

// roundTripAllocs reports the allocations of one self-addressed Send + Recv
// of a one-element []float64 — the frame is already queued when the receive
// looks — in a world built with opts.
func roundTripAllocs(t *testing.T, opts ...Option) float64 {
	t.Helper()
	var n float64
	err := Run(1, func(c *Comm) error {
		send, recv := []float64{1}, []float64(nil)
		var opErr error
		n = testing.AllocsPerRun(200, func() {
			if err := c.Send(0, 0, send); err != nil {
				opErr = err
			}
			if _, err := c.Recv(0, 0, &recv); err != nil {
				opErr = err
			}
		})
		return opErr
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLocalRoundTripAllocations pins the pingpong-8B-local op, and the same
// round trip at 1 MiB: a Send and the matching Recv on each of two ranks
// allocate two objects — each caller boxing its slice into the any that Send
// takes — and the runtime none: the payload is copied once, from the sender's
// slice into the receiver's, so a megabyte each way allocates under a KiB.
// Each rank sends only once the peer's receive is posted: a frame that finds
// no receive is cloned, and a rank preempted between its Send and its Recv
// would otherwise be sent to before it had posted.
func TestLocalRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, elems := range []int{1, 1 << 17} {
		const trips = 100
		var n float64
		var bytes uint64
		err := Run(2, func(c *Comm) error {
			peer := c.world.boxes[1-c.Rank()]
			if c.Rank() == 1 {
				var in []float64
				for {
					st, err := c.Recv(0, AnyTag, &in)
					if err != nil || st.Tag == 1 {
						return err
					}
					if err := waitPosted(peer, 1); err != nil {
						return err
					}
					if err := c.Send(0, 0, in); err != nil {
						return err
					}
				}
			}
			send, recv := make([]float64, elems), []float64(nil)
			var opErr error
			trip := func() {
				if err := waitPosted(peer, 1); err != nil {
					opErr = err
				}
				if err := c.Send(1, 0, send); err != nil {
					opErr = err
				}
				if _, err := c.Recv(1, 0, &recv); err != nil {
					opErr = err
				}
			}
			n = testing.AllocsPerRun(trips, trip) // its warm-up run sizes both receive buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < trips; i++ {
				trip()
			}
			runtime.ReadMemStats(&after)
			bytes = (after.TotalAlloc - before.TotalAlloc) / trips
			if err := c.Send(1, 1, send); err != nil {
				return err
			}
			return opErr
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > 2 || bytes >= 1<<10 {
			t.Errorf("local round trip of %d values allocates %v objects and %d bytes, want <= 2 objects and < 1 KiB", elems, n, bytes)
		}
	}
}

// TestDeadlineQueuedRecvAllocatesLikePlain: a deadline world arms its timer
// and stamps its waiter only when a receive is about to block, so receiving a
// frame that is already queued costs what it costs in a plain world.
func TestDeadlineQueuedRecvAllocatesLikePlain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	plain, timed := roundTripAllocs(t), roundTripAllocs(t, WithDeadline(time.Minute))
	if timed > plain {
		t.Fatalf("queued receive allocates %v objects under WithDeadline, %v without", timed, plain)
	}
}

// roundTripFrames reports the source, destination and tag of every frame the
// transport carries while the two ranks of a world built with opts ping-pong
// one float64 fifty times.
func roundTripFrames(t *testing.T, opts ...Option) []string {
	t.Helper()
	seen := &recordingTransport{}
	err := Run(2, func(c *Comm) error {
		return pingPong(c, 50, 0, make([]float64, 1))
	}, append(opts, withTransportWrapper(seen))...)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range seen.frames() {
		got = append(got, fmt.Sprintf("%d>%d tag %d", f.WSrc, f.Dst, f.Tag))
	}
	return got
}

// TestWithRecoveryAndEmptyFaultPlanCostNothing: machinery that is armed and
// never fires is free, counted and not timed. A world under WithRecovery, or
// under a fault plan with no rules, allocates no more for a queued round trip
// than a plain world, and its ping-pong puts the plain world's frames on the
// transport and no others — a clean run has no heartbeat, acknowledgement or
// agreement traffic. pingpong-8B-local is the gate row that times the path.
func TestWithRecoveryAndEmptyFaultPlanCostNothing(t *testing.T) {
	plainFrames := roundTripFrames(t)
	if len(plainFrames) != 100 {
		t.Fatalf("plain world carried %d frames for 50 round trips, want 100", len(plainFrames))
	}
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithRecovery", WithRecovery()},
		{"WithFaults(FaultPlan{})", WithFaults(FaultPlan{})},
	} {
		if got := roundTripFrames(t, tc.opt); !slices.Equal(got, plainFrames) {
			t.Errorf("%s: the transport carried %d frames, %d without; its first four: %v", tc.name, len(got), len(plainFrames), got[:min(len(got), 4)])
		}
		if raceEnabled {
			continue // allocation counts are not stable under the race detector
		}
		if plain, armed := roundTripAllocs(t), roundTripAllocs(t, tc.opt); armed > plain {
			t.Errorf("%s: queued receive allocates %v objects, %v without", tc.name, armed, plain)
		}
	}
}

// TestMailboxSteadyStateAllocatesNothing: after warm-up neither way through
// the mailbox allocates — not a frame handed to a posted receive (recycled
// waiter, reused posted queue), not a frame that waits in the unexpected queue
// for its receive (reused backing array).
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := newMailbox()
	f := frame{Src: 1, Tag: 3, Data: []byte("x")}
	unexpected := func() {
		m.deliver(f)
		if _, err := m.take(0, 1, 3); err != nil {
			t.Error(err)
		}
	}
	unexpected()
	if n := testing.AllocsPerRun(200, unexpected); n != 0 {
		t.Errorf("deliver then take through the unexpected queue allocates %v objects, want 0", n)
	}

	got := make(chan struct{})
	go func() {
		for {
			if _, err := m.take(0, 1, 3); err != nil {
				close(got)
				return
			}
			got <- struct{}{}
		}
	}()
	posted := func() {
		awaitPosted(t, m, 1)
		m.deliver(f)
		<-got
	}
	posted()
	if n := testing.AllocsPerRun(200, posted); n != 0 {
		t.Errorf("deliver to a posted receive allocates %v objects, want 0", n)
	}
	m.close()
	<-got
}

// TestDeliverWakesOnlyTheMatchingReceive: with k receives blocked on k tags,
// one arrival completes exactly the receive that matches it — the posted
// queue shrinks by that one waiter and no other waiter's wake slot is filled.
func TestDeliverWakesOnlyTheMatchingReceive(t *testing.T) {
	const k, hit = 6, 4
	m := newMailbox()
	got := make(chan int, k)
	for tag := 0; tag < k; tag++ {
		tag := tag
		go func() {
			if f, err := m.take(0, 1, tag); err == nil {
				got <- f.Tag
			}
		}()
		awaitPosted(t, m, tag+1) // posting order = tag order
	}
	m.mu.Lock()
	waiters := append([]*waiter(nil), m.posted...)
	m.mu.Unlock()

	m.deliver(frame{Src: 1, Tag: hit})
	if tag := <-got; tag != hit {
		t.Fatalf("receive on tag %d completed, want the one on tag %d", tag, hit)
	}
	m.mu.Lock()
	if len(m.posted) != k-1 {
		t.Errorf("posted queue holds %d waiters after one delivery, want %d", len(m.posted), k-1)
	}
	for tag, w := range waiters {
		if tag == hit {
			continue
		}
		if len(w.wake) != 0 || w.done {
			t.Errorf("waiter on tag %d was woken (wake slot %d, done %v) by a frame for tag %d", tag, len(w.wake), w.done, hit)
		}
	}
	m.mu.Unlock()
	select {
	case tag := <-got:
		t.Errorf("a second receive (tag %d) completed on one delivery", tag)
	default:
	}
	m.close()
}
