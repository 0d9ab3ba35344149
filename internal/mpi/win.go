package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// One-sided communication: MPI-style RMA windows. WinCreate collectively
// exposes a slice of numeric memory per rank; Put, Get, and Accumulate then
// access a *target* rank's exposed memory without the target posting a
// matching receive — the communication shape sparse and irregular codes
// want, where only the origin knows who it must touch.
//
// The layer is built as a performance feature, with one data path per
// transport:
//
//   - Local transport: windows register in a process-wide table, and
//     Put/Get/Accumulate are direct memcpy/fold against the target's slice —
//     no frame, no allocation, no per-element anything.
//   - Shm transport: window memory is carved out of the mmap'd segment's
//     per-rank window heaps (shmseg.go), each rank publishing its segment
//     offset at creation. A Put to an attached same-host peer is a plain
//     memcpy into shared memory; Accumulate folds under a per-window
//     cross-process spinlock.
//   - TCP (and any pair without direct access): ops travel as an active-
//     message protocol on reserved tags — one small header frame plus one
//     coalesced payload frame per op. The target's per-window service
//     goroutine applies Puts, folds Accumulates rank-side with the
//     op-specialized folds (opFold), and answers Gets, so an Accumulate of
//     a million elements moves one frame and runs one tight loop.
//
// Epochs follow MPI's active/passive split. Fence drains the origin's
// outstanding active-message ops (direct-path ops complete immediately) and
// barriers, delimiting an access epoch: after Fence returns, every op
// issued before it — by anyone — is visible in the target memory. Lock and
// Unlock implement exclusive passive-target epochs through the target's
// service goroutine, so direct-path and frame-path lockers exclude each
// other coherently on every transport.
//
// Failure semantics ride the ordinary send/receive machinery: every op
// checks the world's abort latch and (under WithRecovery) the failed-rank
// set before touching memory, frames honour WithDeadline and fault plans,
// and an ack or lock grant that never arrives because the target died
// surfaces as the retryable *RankFailedError — a kill mid-epoch interrupts
// the epoch, it never wedges it. Window heap space on shm is reclaimed when
// a rank's last window is freed; a dead process's heap state dies with it,
// and a respawned process starts from an empty heap.
//
// Windows are not goroutine-safe: like a Comm, a Win belongs to its rank's
// goroutine. Free is collective and required — it stops the service
// goroutine.

// WinElem constrains window element types to the numeric raw-codec
// whitelist, which is what makes the zero-copy paths (segment views,
// in-place frame views) sound.
type WinElem interface {
	float64 | float32 | int | int32 | int64
}

// The active-message protocol's op kinds.
const (
	winPut = iota + 1
	winAcc
	winGet
	winLock
	winUnlock
	winStop
)

// winOp is the per-op header frame. It is shallow-copyable, so it travels
// as a typed payload on the local transport and gob only on the wires.
type winOp struct {
	Kind int
	Off  int
	N    int
	Op   int // Op for winAcc
}

// tagWinBase anchors the reserved tag space for windows, far below the
// collectives' -2..-22 block: window s on a communicator uses the six tags
// tagWinBase-8s .. tagWinBase-8s-5. Per-pair FIFO keeps each op's header
// and payload frames adjacent, which is the whole protocol's ordering
// contract.
const tagWinBase = -1000

// winKey locates one rank's window memory in the process-wide registry
// (the local transport's direct path).
type winKey struct {
	ctx  int64
	seq  int64
	rank int // world rank
}

// winEntry is what the registry holds: the exposed slice (as its concrete
// []T) and the lock Accumulate needs for cross-origin atomicity.
type winEntry struct {
	data any
	mu   *sync.Mutex
}

// winTarget caches one target's resolved access path.
type winTarget[T WinElem] struct {
	resolved bool
	direct   []T            // non-nil: load/store access to the target's memory
	mu       *sync.Mutex    // in-process Accumulate lock (local registry / self)
	spin     *atomic.Uint32 // cross-process Accumulate lock (shm), nil otherwise
	shm      bool           // direct view lives in the segment: re-check liveness per op
}

// Win is one rank's handle on a window: its own exposed memory plus the
// access paths to every peer's.
type Win[T WinElem] struct {
	c     *Comm
	seq   int64
	local []T
	sizes []int // exposed element count per comm rank

	shmBacked bool    // local lives in the segment
	shmOffs   []int64 // absolute segment offset of each rank's region; -1 = none
	applyMu   sync.Mutex
	spinSelf  *atomic.Uint32

	targets []winTarget[T]
	pending []int // outstanding unacked active-message ops per target

	tagOp, tagData, tagAck, tagRep, tagGrant int

	done  chan struct{}
	freed bool
}

// winElemSize reports T's in-memory (and wire) size.
func winElemSize[T WinElem]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// WinCreate collectively exposes n elements of type T per rank (n may
// differ across ranks, and may be zero) and returns the window handle. On
// the shm transport the memory is allocated inside the shared segment so
// peers get direct load/store access; elsewhere it is ordinary process
// memory. The call includes a barrier: when it returns, every rank's
// window is accessible.
func WinCreate[T WinElem](c *Comm, n int) (*Win[T], error) {
	if n < 0 {
		return nil, fmt.Errorf("mpi: WinCreate: negative size %d", n)
	}
	seq := c.winSeq
	c.winSeq++
	base := tagWinBase - 8*seq
	w := &Win[T]{
		c:        c,
		seq:      seq,
		sizes:    make([]int, c.Size()),
		shmOffs:  make([]int64, c.Size()),
		targets:  make([]winTarget[T], c.Size()),
		pending:  make([]int, c.Size()),
		tagOp:    int(base),
		tagData:  int(base - 1),
		tagAck:   int(base - 2),
		tagRep:   int(base - 3),
		tagGrant: int(base - 4),
		done:     make(chan struct{}),
	}

	// Place the local region: segment-backed when the shm data plane is up
	// (and the platform supports raw views), heap-backed otherwise or when
	// the window heap is exhausted. Each region is a 64-byte header (the
	// Accumulate spinlock word) followed by the data.
	shmOff := int64(-1)
	if t := c.world.shmT; t != nil && rawViewNative {
		bytes := uint64(64 + n*winElemSize[T]())
		if off, ok := t.winAlloc(bytes); ok {
			shmOff = int64(off)
			region := t.winView(off, bytes)
			for i := range region { // zero recycled heap space
				region[i] = 0
			}
			w.local = winSlice[T](region[64:], n)
			w.spinSelf = shmAtU32(region, 0)
			w.shmBacked = true
		}
	}
	if !w.shmBacked {
		w.local = make([]T, n)
	}

	// Publish (size, segment offset) to every peer. []int64 is raw-capable,
	// so this is cheap on every transport.
	info, err := Allgather(c, []int64{int64(n), shmOff})
	if err != nil {
		if w.shmBacked {
			c.world.shmT.winFree()
		}
		return nil, err
	}
	for i, pair := range info {
		if len(pair) != 2 {
			return nil, fmt.Errorf("mpi: WinCreate: malformed window info from rank %d", i)
		}
		w.sizes[i] = int(pair[0])
		w.shmOffs[i] = pair[1]
	}

	// Local transport: register the exposed slice for peers' direct access.
	if c.world.typed {
		c.world.winReg.Store(winKey{c.ctx, seq, c.worldRank(c.rank)},
			&winEntry{data: w.local, mu: &w.applyMu})
	}

	// Resolve the self path before the service starts: serve and the rank's
	// own ops both consult it, and resolving it here makes that a read.
	w.target(c.rank)

	go w.serve()

	// The barrier makes every registration and publication visible before
	// any rank's first op. A peer that races ahead and sends an active-
	// message op early is still safe — the mailbox holds it for the service.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return w, nil
}

// winSlice views a 64-bit-aligned byte region as []T.
func winSlice[T WinElem](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// Local returns this rank's exposed memory. Reading it while a remote
// epoch is open races by MPI's rules: separate access from exposure with
// Fence (or Lock on the own rank).
func (w *Win[T]) Local() []T { return w.local }

// Size reports the number of elements rank target exposes.
func (w *Win[T]) Size(target int) int {
	if target < 0 || target >= len(w.sizes) {
		return 0
	}
	return w.sizes[target]
}

// check runs the shared per-op validation: liveness, rank, bounds, and the
// recovery-mode failed-target gate — the same gates sendValue applies, so
// direct-path ops fail identically to frame-path ones.
func (w *Win[T]) check(target, off, n int) error {
	if w.freed {
		return fmt.Errorf("mpi: operation on a freed window")
	}
	if err := w.c.world.abortErr(); err != nil {
		return err
	}
	if err := w.c.checkRank(target); err != nil {
		return err
	}
	if r := w.c.world.recov; r != nil {
		if err := r.sendErr(w.c, w.c.worldRank(target)); err != nil {
			return err
		}
	}
	if off < 0 || n < 0 || off+n > w.sizes[target] {
		return fmt.Errorf("mpi: window op [%d, %d) out of range (rank %d exposes %d elements)",
			off, off+n, target, w.sizes[target])
	}
	return nil
}

// target resolves (and caches) the access path to one peer's window.
func (w *Win[T]) target(i int) *winTarget[T] {
	t := &w.targets[i]
	if t.resolved {
		return t
	}
	t.resolved = true
	if i == w.c.rank {
		t.direct, t.mu, t.spin = w.local, &w.applyMu, w.spinSelf
		return t
	}
	wr := w.c.worldRank(i)
	if w.c.world.typed {
		if e, ok := w.c.world.winReg.Load(winKey{w.c.ctx, w.seq, wr}); ok {
			ent := e.(*winEntry)
			if data, ok := ent.data.([]T); ok {
				t.direct, t.mu = data, ent.mu
				return t
			}
		}
	}
	if st := w.c.world.shmT; st != nil && rawViewNative && w.shmOffs[i] >= 0 {
		off := uint64(w.shmOffs[i])
		bytes := uint64(64 + w.sizes[i]*winElemSize[T]())
		if off >= st.seg.winOff(wr) && off+bytes <= st.seg.winOff(wr)+st.seg.winCap {
			region := st.winView(off, bytes)
			t.direct = winSlice[T](region[64:], w.sizes[i])
			t.spin = shmAtU32(region, 0)
			t.shm = true
		}
	}
	return t
}

// directOK reports whether the cached direct path may be used right now: a
// segment view demands the peer still be attached and not pinned onto the
// TCP fallback (a respawned process's offsets are stale).
func (w *Win[T]) directOK(t *winTarget[T], i int) bool {
	if t.direct == nil {
		return false
	}
	if !t.shm {
		return true
	}
	return w.c.world.shmT.winDirectOK(w.c.worldRank(i))
}

// lockApply acquires the target's Accumulate lock: the cross-process
// spinlock word for segment-backed windows, the in-process mutex otherwise.
func lockApply[T WinElem](t *winTarget[T]) {
	if t.spin != nil {
		for !t.spin.CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
		return
	}
	t.mu.Lock()
}

func unlockApply[T WinElem](t *winTarget[T]) {
	if t.spin != nil {
		t.spin.Store(0)
		return
	}
	t.mu.Unlock()
}

// Put stores src into target's window at element offset off: MPI_Put. On a
// direct path it is one memcpy; otherwise it is two frames (header +
// coalesced payload) applied by the target's service, completing at the
// next Fence (or Unlock).
func (w *Win[T]) Put(target, off int, src []T) error {
	if err := w.check(target, off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	t := w.target(target)
	if w.directOK(t, target) {
		copy(t.direct[off:off+len(src)], src)
		return nil
	}
	if err := w.c.sendValue(target, w.tagOp, winOp{Kind: winPut, Off: off, N: len(src)}); err != nil {
		return err
	}
	if err := w.c.sendValue(target, w.tagData, src); err != nil {
		return err
	}
	w.pending[target]++
	return nil
}

// Get loads target's window [off, off+len(dst)) into dst: MPI_Get. Direct
// paths read in place; the frame path is synchronous — it completes when
// the reply lands, honouring deadline/recovery while it waits.
func (w *Win[T]) Get(target, off int, dst []T) error {
	if err := w.check(target, off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	t := w.target(target)
	if w.directOK(t, target) {
		copy(dst, t.direct[off:off+len(dst)])
		return nil
	}
	if err := w.c.sendValue(target, w.tagOp, winOp{Kind: winGet, Off: off, N: len(dst)}); err != nil {
		return err
	}
	return recvSegCopy(w.c, target, w.tagRep, dst, "mpi: Get: rank %d replied %d elements, want %d")
}

// Accumulate folds src into target's window at off with a built-in
// operator: MPI_Accumulate. Element [i] becomes win[off+i] op src[i],
// atomically with respect to every other Accumulate on the window
// (including direct-path ones from other processes on shm). On the frame
// path the fold runs rank-side in the target's service with the
// op-specialized loops — the payload crosses once, the arithmetic never
// does.
func (w *Win[T]) Accumulate(target, off int, src []T, op Op) error {
	switch op {
	case Sum, Prod, Max, Min:
	default:
		return fmt.Errorf("mpi: Accumulate: unsupported op %v", op)
	}
	if err := w.check(target, off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	t := w.target(target)
	if w.directOK(t, target) {
		lockApply(t)
		opFold[T](op).into(t.direct[off:off+len(src)], src)
		unlockApply(t)
		return nil
	}
	if err := w.c.sendValue(target, w.tagOp, winOp{Kind: winAcc, Off: off, N: len(src), Op: int(op)}); err != nil {
		return err
	}
	if err := w.c.sendValue(target, w.tagData, src); err != nil {
		return err
	}
	w.pending[target]++
	return nil
}

// flush drains the origin-side completion acks for every outstanding
// active-message op. An ack is sent by the target's service after the op
// is applied, so a drained op is a *remotely complete* op.
func (w *Win[T]) flush() error {
	for t := range w.pending {
		if err := w.flushTarget(t); err != nil {
			return err
		}
	}
	return nil
}

func (w *Win[T]) flushTarget(t int) error {
	for w.pending[t] > 0 {
		if _, err := w.c.recvReserved(t, w.tagAck, nil); err != nil {
			return err
		}
		w.pending[t]--
	}
	return nil
}

// Fence closes the current access-and-exposure epoch and opens the next:
// MPI_Win_fence. When it returns, every op issued by every rank before its
// fence is applied and visible. A kill mid-epoch surfaces here as the
// retryable *RankFailedError (under WithRecovery) or the world abort.
func (w *Win[T]) Fence() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.c.Barrier()
}

// Lock opens an exclusive passive-target epoch on target's window:
// MPI_Win_lock(MPI_LOCK_EXCLUSIVE). It blocks until the target's service
// grants the lock; lockers queue FIFO. Locking the own rank is allowed.
func (w *Win[T]) Lock(target int) error {
	if err := w.check(target, 0, 0); err != nil {
		return err
	}
	if err := w.c.sendValue(target, w.tagOp, winOp{Kind: winLock}); err != nil {
		return err
	}
	_, err := w.c.recvReserved(target, w.tagGrant, nil)
	return err
}

// Unlock closes the passive-target epoch: it drains this origin's
// outstanding ops on target (so the epoch's ops are applied before the
// lock releases) and hands the lock to the next waiter.
func (w *Win[T]) Unlock(target int) error {
	if err := w.check(target, 0, 0); err != nil {
		return err
	}
	if err := w.flushTarget(target); err != nil {
		return err
	}
	return w.c.sendValue(target, w.tagOp, winOp{Kind: winUnlock})
}

// Free collectively releases the window: MPI_Win_free. It drains this
// rank's outstanding ops, barriers (so no peer op can still be in flight
// toward this rank), stops the service goroutine, and returns the window
// memory — segment heap space is reclaimed once the rank's last window is
// freed. The window must not be used afterwards.
func (w *Win[T]) Free() error {
	if w.freed {
		return nil
	}
	err := w.flush()
	if err == nil {
		err = w.c.Barrier()
	}
	w.freed = true
	// Stop the service. If the world aborted, the poisoned mailbox has
	// already unblocked it; otherwise the self-addressed stop frame lands
	// behind any already-queued ops.
	if serr := w.c.sendValue(w.c.rank, w.tagOp, winOp{Kind: winStop}); serr == nil || w.c.world.abortErr() != nil {
		<-w.done
	}
	if w.c.world.typed {
		w.c.world.winReg.Delete(winKey{w.c.ctx, w.seq, w.c.worldRank(w.c.rank)})
	}
	if w.shmBacked {
		w.c.world.shmT.winFree()
	}
	return err
}

// serve is the per-window service goroutine: it owns the target side of
// the active-message protocol and the passive-target lock. It exits on the
// stop op, or when the mailbox is poisoned by a world abort/close.
func (w *Win[T]) serve() {
	defer close(w.done)
	c := w.c
	box := c.mailbox()
	var scratch []T
	locked := false
	var lockQ []int
	grant := func(to int) {
		// A grant to a failed origin is dropped by sendValue's recovery
		// gate; the lock then sits with a dead holder until the epoch is
		// torn down — the same liveness contract as any op toward a dead
		// rank, surfaced to waiters by their own recovery checks.
		_ = c.sendValue(to, w.tagGrant, true)
	}
	self := w.target(c.rank)
	for {
		// The op wait is deliberately deadline- and recovery-free: an idle
		// window must not trip WithDeadline, and the service must outlive
		// unrelated rank failures. Abort still unblocks it via the poisoned
		// mailbox.
		var f frame
		if err := box.wait("WinService", c.ctx, AnySource, w.tagOp, 0, nil, nil, nil, &f); err != nil {
			return
		}
		var op winOp
		if derr := f.decodeInto(&op); derr != nil {
			continue
		}
		src := f.Src
		switch op.Kind {
		case winStop:
			return
		case winPut, winAcc:
			bad := op.Off < 0 || op.N < 0 || op.Off+op.N > len(w.local)
			var apply func(dst, in []T)
			if op.Kind == winPut {
				apply = func(dst, in []T) { copy(dst, in) }
			} else {
				o := Op(op.Op)
				switch o {
				case Sum, Prod, Max, Min:
					apply = opFold[T](o).into
				default:
					bad = true
				}
			}
			if bad {
				// Out of contract: consume the payload frame to stay in
				// sync, send no ack.
				_, _ = c.recv(src, w.tagData, nil)
				continue
			}
			// The payload wait does run the deadline/recovery checks: the
			// payload follows its header on the same FIFO, so a stall here
			// means the origin died between the two frames.
			lockApply(self)
			rerr := recvSegInto(c, src, w.tagData, w.local[op.Off:op.Off+op.N], &scratch, apply, "")
			unlockApply(self)
			if rerr != nil {
				if c.world.abortErr() != nil {
					return
				}
				continue
			}
			_ = c.sendValue(src, w.tagAck, true)
		case winGet:
			if op.Off < 0 || op.N < 0 || op.Off+op.N > len(w.local) {
				continue
			}
			// Every transport consumes the payload synchronously inside
			// Send, so replying with a view of the window under the apply
			// lock is race-free and copy-free.
			lockApply(self)
			_ = c.sendValue(src, w.tagRep, w.local[op.Off:op.Off+op.N])
			unlockApply(self)
		case winLock:
			if !locked {
				locked = true
				grant(src)
			} else {
				lockQ = append(lockQ, src)
			}
		case winUnlock:
			if len(lockQ) > 0 {
				next := lockQ[0]
				lockQ = lockQ[1:]
				grant(next)
			} else {
				locked = false
			}
		}
	}
}
