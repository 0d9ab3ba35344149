package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The mailbox calls the tests drive directly. Production code reaches the
// mailbox through Comm.waitFrame; these are wait without a deadline or a
// recovery check, under the names the tests have always used.

// take removes and returns the earliest frame matching (ctx, src, tag),
// blocking until one arrives, the mailbox closes, or the world aborts.
func (m *mailbox) take(ctx int64, src, tag int) (f frame, err error) {
	return m.takeInto(ctx, src, tag, nil)
}

// takeInto is take with a destination pointer, as Comm.recv posts it.
func (m *mailbox) takeInto(ctx int64, src, tag int, dst any) (f frame, err error) {
	err = m.wait("Recv", ctx, src, tag, 0, nil, nil, dst, &f)
	return f, err
}

func matches(f frame, ctx int64, src, tag int) bool { return f.matches(ctx, src, tag) }

// refBox is the reference the real mailbox is checked against: MPI matching
// in its plainest form. One arrival-ordered list, first match wins; a
// receive that finds nothing waits in posting order, and an arrival goes to
// the earliest waiting receive that matches it, else is queued.
type refBox struct {
	queue   []frame
	pending []*refOp
	closed  bool
	failed  error
}

// refOp is one take issued against both mailboxes; res carries the real
// one's answer.
type refOp struct {
	ctx      int64
	src, tag int
	res      chan refRes
	start    chan struct{} // a take posted ahead of its await (mailbox.post) awaits once this is closed
}

// release lets a posted-ahead take start its await; the script calls it when
// the reference completes the op, at the latest.
func (op *refOp) release() {
	if op.start != nil {
		close(op.start)
		op.start = nil
	}
}

// loan is a frame the script sent lent: buf is the sender's slice, which the
// script may overwrite only once it has recalled the frame's (ctx, src, tag).
type loan struct {
	id       int
	buf      []byte
	ctx      int64
	src, tag int
}

// refRes identifies a frame by its payload size, which every generated
// frame has to itself.
type refRes struct {
	id  int
	err error
}

func (r *refBox) find(ctx int64, src, tag int) int {
	for i := range r.queue {
		if matches(r.queue[i], ctx, src, tag) {
			return i
		}
	}
	return -1
}

// deliver returns the operations the arrival completes, with their results.
func (r *refBox) deliver(f frame) map[*refOp]refRes {
	done := map[*refOp]refRes{}
	for i, op := range r.pending {
		if matches(f, op.ctx, op.src, op.tag) {
			r.pending = append(r.pending[:i:i], r.pending[i+1:]...)
			done[op] = refRes{id: f.payloadSize()}
			return done
		}
	}
	r.queue = append(r.queue, f)
	return done
}

// issue returns op's result if it completes at once; otherwise op waits.
func (r *refBox) issue(op *refOp) (refRes, bool) {
	if r.failed != nil {
		return refRes{err: r.failed}, true
	}
	if i := r.find(op.ctx, op.src, op.tag); i >= 0 {
		res := refRes{id: r.queue[i].payloadSize()}
		r.queue = append(r.queue[:i:i], r.queue[i+1:]...)
		return res, true
	}
	if r.closed {
		return refRes{err: ErrShutdown}, true
	}
	r.pending = append(r.pending, op)
	return refRes{}, false
}

// end fails every waiting operation with err: what close and fail do.
func (r *refBox) end(err error) map[*refOp]refRes {
	done := map[*refOp]refRes{}
	for _, op := range r.pending {
		done[op] = refRes{err: err}
	}
	r.pending = nil
	return done
}

// fakePump gives the model test's mailbox a transport with a read lease
// (mailbox.pump). The script's frames reach the mailbox through whoever holds
// the lease: a blocked take, which reads them off the "socket" in
// and delivers them on its own goroutine — its own frame among them — or the
// script itself, as the fallback reader would, when no operation reads. send
// returns once the frame is delivered, so the script keeps its step-by-step
// comparison with the reference.
type fakePump struct {
	m       *mailbox
	deliver func(frame) // what the lease's holder does with a frame: m.deliver, unless the script streams it
	mu      sync.Mutex
	held    bool
	gone    chan struct{} // closed when the lease's holder lets go
	in      chan frame
	ack     chan struct{}
	intr    chan struct{} // one slot: a wake-up for the reading operation

	byReader, byScript, interrupted atomic.Int32
}

func newFakePump(m *mailbox) *fakePump {
	return &fakePump{m: m, deliver: func(f frame) { m.deliver(f) }, in: make(chan frame), ack: make(chan struct{}), intr: make(chan struct{}, 1)}
}

func (p *fakePump) acquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held {
		return false
	}
	p.held, p.gone = true, make(chan struct{})
	return true
}

func (p *fakePump) release() {
	p.mu.Lock()
	p.held = false
	close(p.gone)
	p.mu.Unlock()
}

func (p *fakePump) idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.held
}

func (p *fakePump) interrupt() {
	select {
	case p.intr <- struct{}{}:
	default:
	}
}

func (p *fakePump) read(wake <-chan struct{}) {
	for len(wake) == 0 {
		select {
		case f := <-p.in:
			p.deliver(f)
			p.byReader.Add(1)
			p.ack <- struct{}{}
		case <-p.intr:
			p.interrupted.Add(1)
		}
	}
}

// send puts one frame through the lease.
func (p *fakePump) send(f frame) {
	for {
		if p.acquire() {
			p.deliver(f)
			p.byScript.Add(1)
			p.release()
			p.m.passLease()
			return
		}
		p.mu.Lock()
		held, gone := p.held, p.gone
		p.mu.Unlock()
		if !held {
			continue
		}
		select {
		case p.in <- f:
			<-p.ack
			return
		case <-gone: // the reader left before it took the frame
		}
	}
}

func postedLen(m *mailbox) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.posted)
}

// waitPosted spins until exactly n operations are posted on m.
func waitPosted(m *mailbox, n int) error {
	for stop := time.Now().Add(10 * time.Second); postedLen(m) != n; runtime.Gosched() {
		if time.Now().After(stop) {
			return fmt.Errorf("posted queue holds %d operations, want %d", postedLen(m), n)
		}
	}
	return nil
}

// awaitPosted is waitPosted for the test's own goroutine.
func awaitPosted(t *testing.T, m *mailbox, n int) {
	t.Helper()
	if err := waitPosted(m, n); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxMatchesReferenceModel drives the real mailbox and refBox with
// the same seeded scripts of deliver / take / poke / close / fail over two
// contexts, three sources, three tags and both wildcards. Every take runs on
// a goroutine of its own, so receives are posted both before and after their
// message arrives and several goroutines block on one mailbox, as Irecv and
// the progress engine make them. After each step the script waits for
// exactly the operations the reference completed and compares results. Half
// the frames are
// raw and carry a release hook: one that a take returned is released once, by
// the script; no other frame is released at all. The other half are borrowed
// []byte payloads that the script overwrites the moment deliver returns, and
// takes bring destinations of every sort (none, empty, roomy, another type):
// the take the reference matched must find the payload as sent — in its own
// destination if the frame landed, reusing its capacity, else in a private
// copy — so a payload copied into any other receive's destination fails it.
// A third of the frames are streamed, as a TCP reader delivers a large one: the
// script holds the header, claims the receive it matches (mailbox.claim),
// writes the payload into the storage it is given with the lock released, and
// hands the frame over landed — after up to two reads that fail half way, each
// of which gives the receive back (unclaim) and must leave exactly the
// reference's operations posted and the same receive first in line for the
// retransmission. The reference sees one arrival, when the payload is whole.
//
// A quarter of the frames are lent, as an exchange step sends them: one that
// finds no receive waits in the queue uncopied, and the script overwrites its
// slice only after recall — at once, at a random later step, or racing the take
// the reference has just matched the frame to, which must copy it out under the
// lock recall takes (the -race run and checkTaken are that assertion). What is
// still queued at the end is taken and checked too. A third of the takes are
// posted ahead of their await (mailbox.post), on the script's goroutine; the
// await starts at once or only when the reference completes the take, so frames
// are handed to receives nobody is waiting in yet.
//
// Every second seed runs on a mailbox with a pump (fakePump), as a TCP world's
// has: the operation that would sleep reads instead, delivers other
// operations' frames and its own, is interrupted by every wake-up the script
// produces (a delivery by the script, poke, close, fail), and on leaving
// hands the lease to the earliest operation still posted. The reference is the
// same one list: who reads must not show in what any operation returns.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	const (
		seeds      = 60
		steps      = 150
		maxPending = 4
	)
	errPoison := errors.New("model: world revoked")
	var landings, streamLandings, lostReads, byReader, byScript, interrupted, lentTaken, aheadHanded atomic.Int32
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := newMailbox(), &refBox{}
		var released [steps + 1]atomic.Int32
		taken, hooked := map[int]bool{}, map[int]bool{}
		nextID := 1
		var loans []loan
		// recall ends the loans under l's (ctx, src, tag), or every loan, and
		// only then overwrites their slices.
		recall := func(l *loan) {
			keep := loans[:0:0]
			for _, o := range loans {
				if l != nil && (o.ctx != l.ctx || o.src != l.src || o.tag != l.tag) {
					keep = append(keep, o)
					continue
				}
				m.recall(o.ctx, o.src, o.tag)
				for i := range o.buf {
					o.buf[i] = ^byte(o.id)
				}
			}
			loans = keep
		}
		// arrive is what the lease's holder does with a frame. One that comes
		// as a bare raw header is streamed: id bytes of value id are still to
		// be read, and the first fails reads of them break off half way.
		fails, waiting, streamErr := 0, 0, error(nil) // waiting: operations posted when the frame came
		arrive := func(f frame) {
			if f.Raw == rawNone || f.Data != nil {
				m.deliver(f)
				return
			}
			id, first := nextID-1, (*waiter)(nil)
			for ; ; fails-- {
				w, into := m.claim(&f, id)
				if w == nil {
					f.Data, f.rel = bytes.Repeat([]byte{byte(id)}, id), func() { released[id].Add(1) }
					hooked[id] = true
					m.deliver(f)
					return
				}
				if first == nil {
					first = w
				}
				if w != first && streamErr == nil {
					streamErr = fmt.Errorf("frame %d: after a lost read the retransmission claimed another receive", id)
				}
				if fails <= 0 {
					copy(into, bytes.Repeat([]byte{byte(id)}, id))
					f.Data, f.landed = into, true
					m.handOver(f, w)
					return
				}
				for i := range into[:(id+1)/2] {
					into[i] = ^byte(id)
				}
				m.unclaim(w)
				lostReads.Add(1)
				if n := postedLen(m); n != waiting && streamErr == nil {
					streamErr = fmt.Errorf("frame %d: %d operations posted after a lost read, reference has %d", id, n, waiting)
				}
			}
		}
		deliver := arrive
		var fp *fakePump
		if seed%2 == 0 {
			fp = newFakePump(m)
			fp.deliver = arrive
			m.pump, deliver = fp, fp.send
		}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		// settle waits for the operations the reference completed, checks
		// each answer, and then for the posted queue to hold exactly the
		// operations the reference still has waiting.
		settle := func(step int, done map[*refOp]refRes) {
			t.Helper()
			for op, want := range done {
				op.release()
				select {
				case got := <-op.res:
					if got != want {
						fail(step, "op %+v returned %+v, reference says %+v", *op, got, want)
					}
					if got.err == nil {
						taken[got.id] = true
					}
				case <-time.After(10 * time.Second):
					fail(step, "op %+v still blocked, reference says %+v", *op, want)
				}
			}
			awaitPosted(t, m, len(ref.pending))
		}
		// pick draws a (context, source, tag); a receive's source and tag are
		// each a wildcard one time in four.
		pick := func(recv bool) (int64, int, int) {
			src, tag := rng.Intn(3), rng.Intn(3)
			if recv && rng.Intn(4) == 0 {
				src = AnySource
			}
			if recv && rng.Intn(4) == 0 {
				tag = AnyTag
			}
			return int64(rng.Intn(2)), src, tag
		}
		for step := 0; step < steps; step++ {
			k := rng.Intn(100)
			if k >= 97 && step < steps*4/5 {
				k = 96 // the mailbox ends only in the script's last fifth
			}
			switch {
			case k < 45:
				ctx, src, tag := pick(false)
				id := nextID
				nextID++
				f := frame{Ctx: ctx, Src: src, Tag: tag}
				seen := f // what the reference is shown: a streamed frame with its payload
				var lent []byte
				switch kind := rng.Intn(4); kind {
				case 0, 3:
					lent = bytes.Repeat([]byte{byte(id)}, id)
					f.Val, f.HasVal, f.borrowed, f.lent = lent, true, true, kind == 3
					seen = f
				case 1:
					f.Raw, f.Data, f.rel = rawBytes, make([]byte, id), func() { released[id].Add(1) }
					hooked[id] = true
					seen = f
				default:
					f.Raw, fails, waiting = rawBytes, rng.Intn(3), len(ref.pending)
					seen.Raw, seen.Data = rawBytes, make([]byte, id)
				}
				done := ref.deliver(seen)
				deliver(f)
				if !f.lent {
					for i := range lent { // the sender's buffer is its own again
						lent[i] = ^byte(id)
					}
				} else if loans = append(loans, loan{id, lent, ctx, src, tag}); rng.Intn(2) == 0 {
					recall(&loans[len(loans)-1])
				}
				if streamErr != nil {
					fail(step, "%v", streamErr)
				}
				settle(step, done)
			case k < 90:
				if len(ref.pending) >= maxPending {
					continue
				}
				ctx, src, tag := pick(true)
				op := &refOp{ctx: ctx, src: src, tag: tag, res: make(chan refRes, 1)}
				buf := new([]byte)
				var dst any
				switch rng.Intn(4) {
				case 1:
					dst = buf
				case 2:
					*buf = make([]byte, 2, steps+1)
					dst = buf
				case 3:
					dst = new([]int64)
				}
				room := cap(*buf)
				finish := func(f frame, err error) {
					if err == nil {
						f.release()
						err = checkTaken(f, *buf, room)
					}
					if f.landed && f.HasVal {
						landings.Add(1)
					} else if f.landed {
						streamLandings.Add(1)
					}
					op.res <- refRes{id: f.payloadSize(), err: err}
				}
				if ahead := new(frame); rng.Intn(3) == 0 {
					if w, err := m.post("Recv", op.ctx, op.src, op.tag, 0, dst, ahead); w == nil {
						finish(*ahead, err)
					} else {
						start := make(chan struct{})
						if op.start = start; rng.Intn(2) == 0 {
							op.release()
						}
						go func() {
							<-start
							m.mu.Lock()
							if w.done {
								aheadHanded.Add(1)
							}
							m.mu.Unlock()
							err := m.await(w, 0, nil, nil, ahead)
							finish(*ahead, err)
						}()
					}
				} else {
					go func() { finish(m.takeInto(op.ctx, op.src, op.tag, dst)) }()
				}
				done := map[*refOp]refRes{}
				if res, ok := ref.issue(op); ok {
					done[op] = res
					// A take the reference matched to a frame still lent races
					// that frame's recall.
					if i := slices.IndexFunc(loans, func(l loan) bool { return l.id == res.id }); i >= 0 {
						lentTaken.Add(1)
						recall(&loans[i])
					}
				}
				settle(step, done)
			case k < 94:
				m.poke()
			case k < 97:
				if len(loans) > 0 {
					recall(&loans[rng.Intn(len(loans))])
				}
			case k < 99:
				ref.closed = true
				done := ref.end(ErrShutdown)
				m.close()
				settle(step, done)
			default:
				if ref.failed == nil {
					ref.failed = errPoison
				}
				done := ref.end(ref.failed)
				m.fail(errPoison)
				settle(step, done)
			}
		}
		// Every loan ends, and what is still queued is what was sent.
		recall(nil)
		for ref.failed == nil && len(ref.queue) > 0 {
			f, err := m.take(ref.queue[0].Ctx, AnySource, AnyTag)
			if i := ref.find(ref.queue[0].Ctx, AnySource, AnyTag); err != nil || f.payloadSize() != ref.queue[i].payloadSize() {
				fail(steps, "draining the queue: took frame %d (%v), reference has %d", f.payloadSize(), err, ref.queue[i].payloadSize())
			} else {
				ref.queue = append(ref.queue[:i:i], ref.queue[i+1:]...)
			}
			f.release()
			taken[f.payloadSize()] = true
			if err := checkTaken(f, nil, 0); err != nil {
				fail(steps, "draining the queue: %v", err)
			}
		}
		m.close()
		settle(steps, ref.end(ErrShutdown))
		if fp != nil {
			byReader.Add(fp.byReader.Load())
			byScript.Add(fp.byScript.Load())
			interrupted.Add(fp.interrupted.Load())
		}
		for id := 1; id < nextID; id++ {
			want := int32(0)
			if taken[id] && hooked[id] {
				want = 1
			}
			if got := released[id].Load(); got != want {
				t.Fatalf("seed %d: frame %d (taken=%v) released %d times", seed, id, taken[id], got)
			}
		}
	}
	if landings.Load() == 0 || streamLandings.Load() == 0 || lostReads.Load() == 0 {
		t.Fatalf("%d borrowed and %d streamed frames landed in a posted receive's destination and %d streamed reads were lost: want some of each",
			landings.Load(), streamLandings.Load(), lostReads.Load())
	}
	if lentTaken.Load() == 0 || aheadHanded.Load() == 0 {
		t.Fatalf("%d takes raced the recall of the lent frame they matched and %d takes posted ahead were handed their frame before they awaited it: want some of each",
			lentTaken.Load(), aheadHanded.Load())
	}
	if byReader.Load() == 0 || byScript.Load() == 0 || interrupted.Load() == 0 {
		t.Fatalf("with a pump, reading operations delivered %d frames, the script %d, and %d reads were interrupted: want some of each",
			byReader.Load(), byScript.Load(), interrupted.Load())
	}
	t.Logf("with a pump: %d frames delivered by reading operations, %d by the script, %d reads interrupted",
		byReader.Load(), byScript.Load(), interrupted.Load())
}

// checkTaken verifies a payload a take returned: id bytes of value id, in buf
// (the take's destination, which had room capacity) if the frame landed, and
// otherwise in a private copy (borrowed) or in the frame's own buffer
// (streamed). Raw frames that came whole carry zeros and pass.
func checkTaken(f frame, buf []byte, room int) error {
	id := f.payloadSize()
	got := buf
	if !f.landed && f.HasVal {
		got = f.Val.([]byte)
	} else if !f.landed {
		if got = f.Data; id == 0 || got[0] == 0 {
			return nil
		}
	} else if room >= id && cap(buf) != room {
		return fmt.Errorf("frame %d landed in a new array, not in the %d-byte one its receive brought", id, room)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{byte(id)}, id)) {
		return fmt.Errorf("frame %d (landed=%v) reads %v", id, f.landed, got)
	}
	return nil
}

// TestMailboxHandedFrameReleasedOnceOnFail races a fail against a receive
// that deliver has already handed its frame to. Whichever the receive sees
// first, the frame's payload goes back to its owner exactly once: by the
// caller when the receive returns it, by wait itself when the revoke wins.
// Every other pair of rounds delivers a borrowed payload to a receive with a
// destination instead: the revoke then races the copy into it, and a receive
// that returns without error must hold the payload.
func TestMailboxHandedFrameReleasedOnceOnFail(t *testing.T) {
	errPoison := errors.New("model: world revoked")
	revoked := 0
	for i := 0; i < 300; i++ {
		m := newMailbox()
		var released atomic.Int32
		var buf []byte
		res := make(chan error, 1)
		go func() {
			f, err := m.takeInto(0, AnySource, 5, &buf)
			if err == nil {
				f.release()
			}
			res <- err
		}()
		awaitPosted(t, m, 1)
		lend := i%4 >= 2
		if lend {
			m.deliver(frame{Src: 1, Tag: 5, Val: []byte{9, 9}, HasVal: true, borrowed: true})
		} else {
			m.deliver(frame{Src: 1, Tag: 5, Raw: rawBytes, Data: []byte{1}, rel: func() { released.Add(1) }})
		}
		if i%2 == 1 {
			runtime.Gosched() // give the receive a chance to win
		}
		m.fail(errPoison)
		if err := <-res; err == errPoison {
			revoked++
		} else if err != nil {
			t.Fatalf("take = %v", err)
		} else if lend && !bytes.Equal(buf, []byte{9, 9}) {
			t.Fatalf("round %d: the receive returned with %v in its destination, want [9 9]", i, buf)
		}
		if n := released.Load(); lend == (n == 1) {
			t.Fatalf("round %d: payload released %d times, want exactly 1 for a raw frame and 0 for a borrowed one", i, n)
		}
	}
	// Even rounds fail the mailbox with no yield after the hand-over, so a
	// revoke that never wins means a handed-over frame is checked first.
	if revoked == 0 {
		t.Fatal("the revoke never won: failErr must be checked before a handed-over frame")
	}
	t.Logf("the revoke won %d of 300 races", revoked)
}

// TestMailboxClaimedReceiveIsLeftAlone holds a delivery in the middle of its
// copy — the test does deliver's steps itself, pausing where deliver has the
// lock released — and throws at the claimed receive everything that ends a
// posted one: its deadline passes, a second matching frame arrives, the
// mailbox is poked and then revoked. The receive must neither time out nor be
// matched again nor return while its destination is being written; once the
// delivery completes it returns what the revoke order says, the abort error.
// Without the revoke it returns the landed frame.
func TestMailboxClaimedReceiveIsLeftAlone(t *testing.T) {
	errPoison := errors.New("model: world revoked")
	for _, revoke := range []bool{false, true} {
		m := newMailbox()
		var timeouts atomic.Int32
		onTimeout := func() error {
			timeouts.Add(1)
			return ErrDeadlineExceeded
		}
		const budget = 2 * time.Millisecond
		var buf []byte
		var got frame
		res := make(chan error, 1)
		go func() { res <- m.wait("Recv", 0, 1, 5, budget, onTimeout, nil, &buf, &got) }()
		awaitPosted(t, m, 1)

		f := frame{Src: 1, Tag: 5, Val: []byte{7, 7, 7}, HasVal: true, borrowed: true}
		m.mu.Lock()
		w := m.claimLocked(&f)
		if w == nil {
			t.Fatal("the posted receive was not claimed")
		}
		w.busy = true
		m.mu.Unlock()

		second := frame{Src: 1, Tag: 5, Data: []byte("2nd")}
		m.deliver(second)
		m.poke()
		if revoke {
			m.fail(errPoison)
		}
		for stop := time.Now().Add(3 * budget); time.Now().Before(stop); {
			runtime.Gosched() // the deadline passes and its timer wakes the receive
		}
		select {
		case err := <-res:
			t.Fatalf("revoke=%v: the receive returned (%v) while a delivery was copying into its destination", revoke, err)
		default:
		}

		f.settle(w.dst)
		m.mu.Lock()
		w.busy = false
		w.f, w.done = f, true
		w.signal()
		m.mu.Unlock()

		err := <-res
		if n := timeouts.Load(); n != 0 {
			t.Errorf("revoke=%v: the deadline fired %d times on a claimed receive", revoke, n)
		}
		if revoke {
			if err != errPoison {
				t.Errorf("revoked: the receive returned %v, want the abort error", err)
			}
			continue
		}
		if err != nil || !got.landed || !bytes.Equal(buf, []byte{7, 7, 7}) {
			t.Errorf("the receive returned err=%v landed=%v destination=%v, want the landed frame and [7 7 7]", err, got.landed, buf)
		}
		m.mu.Lock()
		i := m.findLocked(0, 1, 5)
		queued := i >= 0 && bytes.Equal(m.unexp[i].Data, second.Data)
		m.mu.Unlock()
		if !queued {
			t.Errorf("the second frame is not queued (index %d): it must not match a claimed receive", i)
		}
	}
}
