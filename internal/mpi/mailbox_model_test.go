package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
	err = m.wait("Recv", ctx, src, tag, 0, nil, nil, true, &f)
	return f, err
}

// waitMatch blocks until a matching frame is queued (without removing it),
// the mailbox closes, or the world aborts: the core of the blocking Probe.
func (m *mailbox) waitMatch(ctx int64, src, tag int) (Status, error) {
	var f frame
	if err := m.wait("Probe", ctx, src, tag, 0, nil, nil, false, &f); err != nil {
		return Status{}, err
	}
	return f.status(), nil
}

func matches(f frame, ctx int64, src, tag int) bool { return f.matches(ctx, src, tag) }

// refBox is the reference the real mailbox is checked against: MPI matching
// in its plainest form. One arrival-ordered list, first match wins; an
// operation that finds nothing waits in posting order, and an arrival goes to
// the earliest waiting receive that matches it, else is queued and completes
// every waiting probe that matches it.
type refBox struct {
	queue   []frame
	pending []*refOp
	closed  bool
	failed  error
}

// refOp is one take (pop) or waitMatch issued against both mailboxes; res
// carries the real one's answer.
type refOp struct {
	ctx      int64
	src, tag int
	pop      bool
	res      chan refRes
}

// refRes identifies a frame by its payload length, which every generated
// frame has to itself and which Status.Bytes reports for probes.
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
		if op.pop && matches(f, op.ctx, op.src, op.tag) {
			r.pending = append(r.pending[:i:i], r.pending[i+1:]...)
			done[op] = refRes{id: len(f.Data)}
			return done
		}
	}
	r.queue = append(r.queue, f)
	keep := r.pending[:0:0]
	for _, op := range r.pending {
		if matches(f, op.ctx, op.src, op.tag) {
			done[op] = refRes{id: len(f.Data)}
		} else {
			keep = append(keep, op)
		}
	}
	r.pending = keep
	return done
}

// issue returns op's result if it completes at once; otherwise op waits.
func (r *refBox) issue(op *refOp) (refRes, bool) {
	if r.failed != nil {
		return refRes{err: r.failed}, true
	}
	if i := r.find(op.ctx, op.src, op.tag); i >= 0 {
		res := refRes{id: len(r.queue[i].Data)}
		if op.pop {
			r.queue = append(r.queue[:i:i], r.queue[i+1:]...)
		}
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

func postedLen(m *mailbox) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.posted)
}

// awaitPosted spins until exactly n operations are posted on m.
func awaitPosted(t *testing.T, m *mailbox, n int) {
	t.Helper()
	for stop := time.Now().Add(10 * time.Second); postedLen(m) != n; runtime.Gosched() {
		if time.Now().After(stop) {
			t.Fatalf("posted queue holds %d operations, want %d", postedLen(m), n)
		}
	}
}

// TestMailboxMatchesReferenceModel drives the real mailbox and refBox with
// the same seeded scripts of deliver / take / waitMatch / peek / poke / close
// / fail over two contexts, three sources, three tags and both wildcards.
// Every take and waitMatch runs on a goroutine of its own, so receives are
// posted both before and after their message arrives and several goroutines
// block on one mailbox, as Irecv and the progress engine make them. After
// each step the script waits for exactly the operations the reference
// completed and compares results, so a probe woken for a frame a receive took
// must have gone back to waiting or a later step fails. Every frame carries a
// release hook: one that a take returned is released once, by the script; no
// other frame is released at all.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	const (
		seeds      = 60
		steps      = 150
		maxPending = 4
	)
	errPoison := errors.New("model: world revoked")
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := newMailbox(), &refBox{}
		var released [steps + 1]atomic.Int32
		taken := map[int]bool{}
		nextID := 1
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
				select {
				case got := <-op.res:
					if got != want {
						fail(step, "op %+v returned %+v, reference says %+v", *op, got, want)
					}
					if got.err == nil && op.pop {
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
			case k < 40:
				ctx, src, tag := pick(false)
				id := nextID
				nextID++
				f := frame{Ctx: ctx, Src: src, Tag: tag, Raw: rawBytes, Data: make([]byte, id),
					rel: func() { released[id].Add(1) }}
				done := ref.deliver(f)
				m.deliver(f)
				settle(step, done)
			case k < 80:
				if len(ref.pending) >= maxPending {
					continue
				}
				ctx, src, tag := pick(true)
				op := &refOp{ctx: ctx, src: src, tag: tag, pop: k < 68, res: make(chan refRes, 1)}
				go func() {
					if op.pop {
						f, err := m.take(op.ctx, op.src, op.tag)
						if err == nil {
							f.release()
						}
						op.res <- refRes{id: len(f.Data), err: err}
						return
					}
					st, err := m.waitMatch(op.ctx, op.src, op.tag)
					op.res <- refRes{id: st.Bytes, err: err}
				}()
				done := map[*refOp]refRes{}
				if res, ok := ref.issue(op); ok {
					done[op] = res
				}
				settle(step, done)
			case k < 90:
				ctx, src, tag := pick(true)
				st, ok := m.peek(ctx, src, tag)
				i := -1
				if ref.failed == nil {
					i = ref.find(ctx, src, tag)
				}
				if ok != (i >= 0) || ok && (st.Bytes != len(ref.queue[i].Data) || st.Source != ref.queue[i].Src || st.Tag != ref.queue[i].Tag) {
					fail(step, "peek(%d,%d,%d) = %+v, %v; reference index %d", ctx, src, tag, st, ok, i)
				}
			case k < 97:
				m.poke()
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
		m.close()
		settle(steps, ref.end(ErrShutdown))
		for id := 1; id < nextID; id++ {
			want := int32(0)
			if taken[id] {
				want = 1
			}
			if got := released[id].Load(); got != want {
				t.Fatalf("seed %d: frame %d (taken=%v) released %d times", seed, id, taken[id], got)
			}
		}
	}
}

// TestMailboxHandedFrameReleasedOnceOnFail races a fail against a receive
// that deliver has already handed its frame to. Whichever the receive sees
// first, the frame's payload goes back to its owner exactly once: by the
// caller when the receive returns it, by wait itself when the revoke wins.
func TestMailboxHandedFrameReleasedOnceOnFail(t *testing.T) {
	errPoison := errors.New("model: world revoked")
	revoked := 0
	for i := 0; i < 300; i++ {
		m := newMailbox()
		var released atomic.Int32
		res := make(chan error, 1)
		go func() {
			f, err := m.take(0, AnySource, 5)
			if err == nil {
				f.release()
			}
			res <- err
		}()
		awaitPosted(t, m, 1)
		m.deliver(frame{Src: 1, Tag: 5, Raw: rawBytes, Data: []byte{1}, rel: func() { released.Add(1) }})
		if i%2 == 1 {
			runtime.Gosched() // give the receive a chance to win
		}
		m.fail(errPoison)
		if err := <-res; err == errPoison {
			revoked++
		} else if err != nil {
			t.Fatalf("take = %v", err)
		}
		if n := released.Load(); n != 1 {
			t.Fatalf("round %d: payload released %d times, want exactly 1", i, n)
		}
	}
	// Even rounds fail the mailbox with no yield after the hand-over, so a
	// revoke that never wins means a handed-over frame is checked first.
	if revoked == 0 {
		t.Fatal("the revoke never won: failErr must be checked before a handed-over frame")
	}
	t.Logf("the revoke won %d of 300 races", revoked)
}
