package mpi

import (
	"sync"
	"time"
)

// Transport moves frames between ranks. Implementations must preserve the
// order of frames sent from one rank to another (per-pair FIFO); the
// mailbox layer turns that into MPI's non-overtaking matching guarantee.
// Decorators stack on the base transport in wrapTransport's fixed order —
// fault injection innermost, then message counting, then the test hook —
// so counters observe what a program tried to send, faults included — and
// stay synchronous: a slice in frame.Val is on loan from the caller until
// Send returns (see frame.borrowed).
// Failure propagation does not pass through Send: a world abort poisons
// the receiving mailboxes directly (local) or travels as a control frame
// outside the user frame stream (TCP), so no fault rule can suppress it.
type Transport interface {
	// Send routes f to the mailbox of rank f.Dst. It must not block
	// indefinitely: sends in this runtime are buffered, as in MPI's
	// buffered mode (and as in mpi4py's default for small messages).
	Send(f frame) error
	// Close releases transport resources and unblocks pending receives.
	Close() error
}

// localTransport routes frames through in-memory mailboxes: all ranks are
// goroutines of one process, the analogue of running mpirun on one node.
//
// Send delivers straight to the destination mailbox, which copies a borrowed
// payload to where it is going, unless WithNetwork models the link the frame
// crosses. Such a frame is priced once, at Send (link.price), takes a
// private copy and joins its link's queue; one goroutine per link delivers
// the queue's frames as they fall due. Every frame of a rank pair crosses
// the same link and a link's due times only grow, so per-pair FIFO holds
// (TestLatencyPreservesPerPairFIFO) while frames in flight overlap their
// latency, and a sender is never blocked by the modeled network.
type localTransport struct {
	boxes []*mailbox
	// nodeOf, latency and bandwidth are the modeled network (WithNetwork):
	// ranks beyond nodeOf sit on node 0.
	nodeOf    []int
	latency   time.Duration
	bandwidth float64

	mu       sync.Mutex
	links    map[[2]int]*link // by (source node, destination node)
	done     chan struct{}    // closed by Close; the link goroutines exit
	draining sync.WaitGroup   // the link goroutines; Close waits for them
}

// link is one directed node pair's queue of priced frames.
type link struct {
	mu        sync.Mutex
	latency   time.Duration
	bandwidth float64   // bytes per second; <= 0 is infinite
	free      time.Time // when the link has sent every queued byte
	q         []queuedFrame
	wake      chan struct{} // capacity 1: the queue has grown
}

type queuedFrame struct {
	f   frame
	due time.Time
}

// price returns when a frame of bytes sent at now is due at the far end:
// after the link has sent what is ahead of it and then these bytes, plus
// the latency. Called with l.mu held, so push order is due order.
func (l *link) price(now time.Time, bytes int) time.Time {
	if l.free.Before(now) {
		l.free = now
	}
	if l.bandwidth > 0 {
		l.free = l.free.Add(time.Duration(float64(bytes) * float64(time.Second) / l.bandwidth))
	}
	return l.free.Add(l.latency)
}

func newLocalTransport(np int) *localTransport {
	t := &localTransport{boxes: make([]*mailbox, np), done: make(chan struct{})}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

// Send delivers f to its destination mailbox, directly or through the
// queue of the modeled link it crosses.
func (t *localTransport) Send(f frame) error {
	if f.Dst < 0 || f.Dst >= len(t.boxes) {
		return ErrInvalidRank
	}
	l := t.link(f.WSrc, f.Dst)
	if l == nil {
		t.boxes[f.Dst].deliver(f)
		return nil
	}
	f.settle(nil) // delivered after this Send returns
	now := time.Now()
	l.mu.Lock()
	l.q = append(l.q, queuedFrame{f, l.price(now, f.payloadSize())})
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

func (t *localTransport) node(rank int) int {
	if rank >= 0 && rank < len(t.nodeOf) {
		return t.nodeOf[rank]
	}
	return 0
}

// link returns the modeled link from src's node to dst's, creating it and
// its delivery goroutine on first use; nil when no network is modeled, both
// ranks share a node or the transport is closed.
func (t *localTransport) link(src, dst int) *link {
	if t.latency <= 0 && t.bandwidth <= 0 {
		return nil
	}
	sn, dn := t.node(src), t.node(dst)
	if sn == dn {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return nil
	default:
	}
	if t.links == nil {
		t.links = make(map[[2]int]*link)
	}
	l := t.links[[2]int{sn, dn}]
	if l == nil {
		l = &link{latency: t.latency, bandwidth: t.bandwidth, wake: make(chan struct{}, 1)}
		t.links[[2]int{sn, dn}] = l
		t.draining.Add(1)
		go t.deliverLink(l)
	}
	return l
}

// deliverLink delivers l's frames in queue order, each once it is due. The
// wait for the head frame is the network model's only sleep; frames still
// queued at Close are dropped, as every rank's main has returned.
func (t *localTransport) deliverLink(l *link) {
	defer t.draining.Done()
	for {
		l.mu.Lock()
		if len(l.q) == 0 {
			l.mu.Unlock()
			select {
			case <-l.wake:
				continue
			case <-t.done:
				return
			}
		}
		head := l.q[0]
		l.q[0] = queuedFrame{}
		l.q = l.q[1:]
		l.mu.Unlock()
		if wait := time.Until(head.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-t.done:
				return
			}
		}
		t.boxes[head.f.Dst].deliver(head.f)
	}
}

func (t *localTransport) Close() error {
	t.mu.Lock()
	close(t.done)
	t.mu.Unlock()
	t.draining.Wait()
	for _, b := range t.boxes {
		b.close()
	}
	return nil
}
