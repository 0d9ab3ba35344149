package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The one-sided layer's correctness suite. The same observational checks
// run on every transport — local fast path (direct registry access), TCP
// (every op on the active-message path), and shm (segment-backed direct
// access) — so the three data paths are proven observationally identical, the same parity discipline the
// collectives follow.

// checkWinEpoch drives one fence-delimited cycle of all three ops and
// verifies every rank's exposed memory afterwards.
func checkWinEpoch(c *Comm, n int) error {
	np := c.Size()
	rank := c.Rank()
	w, err := WinCreate[float64](c, n)
	if err != nil {
		return fmt.Errorf("WinCreate: %w", err)
	}
	defer w.Free()

	// Epoch 1: every rank puts its signature block into its right
	// neighbor's window, covering self-puts at np=1.
	right := (rank + 1) % np
	block := make([]float64, n)
	for i := range block {
		block[i] = float64(rank*1000 + i)
	}
	if err := w.Put(right, 0, block); err != nil {
		return fmt.Errorf("Put: %w", err)
	}
	if err := w.Fence(); err != nil {
		return fmt.Errorf("Fence 1: %w", err)
	}
	left := (rank - 1 + np) % np
	for i, got := range w.Local() {
		if want := float64(left*1000 + i); got != want {
			return fmt.Errorf("rank %d local[%d] = %v after Put epoch, want %v", rank, i, got, want)
		}
	}
	// Local reads are themselves an epoch: barrier before peers may open
	// the next access epoch on this window.
	if err := c.Barrier(); err != nil {
		return err
	}

	// Epoch 2: every rank accumulates ones into every window (rank-side
	// folds on the frame path, locked folds on the direct paths).
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	for t := 0; t < np; t++ {
		if err := w.Accumulate(t, 0, ones, Sum); err != nil {
			return fmt.Errorf("Accumulate -> %d: %w", t, err)
		}
	}
	if err := w.Fence(); err != nil {
		return fmt.Errorf("Fence 2: %w", err)
	}
	for i, got := range w.Local() {
		if want := float64(left*1000+i) + float64(np); got != want {
			return fmt.Errorf("rank %d local[%d] = %v after Accumulate epoch, want %v", rank, i, got, want)
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}

	// Epoch 3: read the left neighbor's window back with Get and check it
	// against what the epochs above deterministically left there.
	if n > 0 {
		dst := make([]float64, n)
		if err := w.Get(left, 0, dst); err != nil {
			return fmt.Errorf("Get: %w", err)
		}
		leftsLeft := (left - 1 + np) % np
		for i, got := range dst {
			if want := float64(leftsLeft*1000+i) + float64(np); got != want {
				return fmt.Errorf("rank %d Get(%d)[%d] = %v, want %v", rank, left, i, got, want)
			}
		}
	}
	return w.Fence()
}

func TestWinPutGetAccumulate(t *testing.T) {
	for name, runner := range parityRunners() {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			if name == "tcp" {
				t.Parallel()
			}
			for _, np := range []int{1, 2, 3, 4} {
				for _, n := range []int{0, 1, 64, 4096} {
					if err := runner(np, func(c *Comm) error {
						return checkWinEpoch(c, n)
					}); err != nil {
						t.Fatalf("np=%d n=%d: %v", np, n, err)
					}
				}
			}
		})
	}
}

// TestWinTypes: the whitelist's integer and 32-bit element types through
// the same epoch cycle — the raw codec kinds and the unsafe views must
// agree on element size per type.
func TestWinTypes(t *testing.T) {
	check := func(c *Comm) error {
		if err := winTypeCycle[int32](c); err != nil {
			return fmt.Errorf("int32: %w", err)
		}
		if err := winTypeCycle[int64](c); err != nil {
			return fmt.Errorf("int64: %w", err)
		}
		if err := winTypeCycle[float32](c); err != nil {
			return fmt.Errorf("float32: %w", err)
		}
		return winTypeCycle[int](c)
	}
	runners := map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"local": Run, "tcp": RunTCP,
	}
	if shmSupported {
		runners["shm"] = RunShm
	}
	for name, runner := range runners {
		if err := runner(3, check); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func winTypeCycle[T WinElem](c *Comm) error {
	const n = 97
	np := c.Size()
	w, err := WinCreate[T](c, n)
	if err != nil {
		return err
	}
	defer w.Free()
	v := make([]T, n)
	for i := range v {
		v[i] = T(c.Rank() + 1)
	}
	for t := 0; t < np; t++ {
		if err := w.Accumulate(t, 0, v, Sum); err != nil {
			return err
		}
	}
	if err := w.Fence(); err != nil {
		return err
	}
	want := T(np * (np + 1) / 2)
	for i, got := range w.Local() {
		if got != want {
			return fmt.Errorf("local[%d] = %v, want %v", i, got, want)
		}
	}
	return w.Fence()
}

// TestWinUnevenSizes: ranks expose different window sizes, including zero;
// bounds are per-target.
func TestWinUnevenSizes(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		n := c.Rank() * 8 // rank 0 exposes nothing
		w, err := WinCreate[int64](c, n)
		if err != nil {
			return err
		}
		defer w.Free()
		for tgt := 1; tgt < np; tgt++ {
			if c.Rank() == 0 {
				v := make([]int64, w.Size(tgt))
				for i := range v {
					v[i] = int64(tgt)
				}
				if err := w.Put(tgt, 0, v); err != nil {
					return err
				}
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		for i, got := range w.Local() {
			if want := int64(c.Rank()); got != want {
				return fmt.Errorf("rank %d local[%d] = %d, want %d", c.Rank(), i, got, want)
			}
		}
		return w.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinBounds: out-of-range ops and invalid arguments fail with errors,
// never memory corruption, on both the direct (local) and the frame (TCP)
// path.
func TestWinBounds(t *testing.T) {
	for _, run := range []func(np int, main func(c *Comm) error, opts ...Option) error{Run, RunTCP} {
		err := run(2, func(c *Comm) error {
			w, err := WinCreate[float64](c, 16)
			if err != nil {
				return err
			}
			defer w.Free()
			v := make([]float64, 8)
			if err := w.Put(1, 12, v); err == nil {
				return fmt.Errorf("Put past the end succeeded")
			}
			if err := w.Get(1, -1, v); err == nil {
				return fmt.Errorf("Get at negative offset succeeded")
			}
			if err := w.Put(7, 0, v); err == nil {
				return fmt.Errorf("Put to an invalid rank succeeded")
			}
			if err := w.Accumulate(1, 0, v, Op(99)); err == nil {
				return fmt.Errorf("Accumulate with a bogus op succeeded")
			}
			return w.Fence()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWinLockUnlock: the passive-target mutual-exclusion property — np
// ranks each run k read-modify-write increments on rank 0's counter under
// Lock/Unlock; every increment must survive. This is exactly the update
// that Fence epochs cannot express and that races without the lock, and it
// must hold across transports because direct-path and frame-path lockers
// share the target's lock service.
func TestWinLockUnlock(t *testing.T) {
	const np, iters = 4, 25
	runners := map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"local": Run, "tcp": RunTCP,
	}
	if shmSupported {
		runners["shm"] = RunShm
	}
	for name, runner := range runners {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			err := runner(np, func(c *Comm) error {
				w, err := WinCreate[int64](c, 1)
				if err != nil {
					return err
				}
				defer w.Free()
				buf := make([]int64, 1)
				for i := 0; i < iters; i++ {
					if err := w.Lock(0); err != nil {
						return err
					}
					if err := w.Get(0, 0, buf); err != nil {
						return err
					}
					buf[0]++
					if err := w.Put(0, 0, buf); err != nil {
						return err
					}
					if err := w.Unlock(0); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if got := w.Local()[0]; got != int64(np*iters) {
						return fmt.Errorf("counter = %d after %d locked increments, want %d", got, np*iters, np*iters)
					}
				}
				return w.Fence()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWinMultipleWindows: two windows on one communicator use disjoint tag
// blocks and separate services; traffic on one never bleeds into the other.
func TestWinMultipleWindows(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		a, err := WinCreate[int64](c, 4)
		if err != nil {
			return err
		}
		defer a.Free()
		b, err := WinCreate[int64](c, 4)
		if err != nil {
			return err
		}
		defer b.Free()
		va := []int64{1, 1, 1, 1}
		vb := []int64{7, 7, 7, 7}
		for t := 0; t < c.Size(); t++ {
			if err := a.Accumulate(t, 0, va, Sum); err != nil {
				return err
			}
			if err := b.Accumulate(t, 0, vb, Sum); err != nil {
				return err
			}
		}
		if err := a.Fence(); err != nil {
			return err
		}
		if err := b.Fence(); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if a.Local()[i] != 3 || b.Local()[i] != 21 {
				return fmt.Errorf("windows cross-contaminated: a=%v b=%v", a.Local(), b.Local())
			}
		}
		if err := a.Fence(); err != nil {
			return err
		}
		return b.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmWinReclamation: segment window-heap space is visible in the
// transport stats while windows are live and fully reclaimed once the last
// one is freed — serial create/free cycles never leak the heap.
func TestShmWinReclamation(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)
	err := RunShm(2, func(c *Comm) error {
		st := obs.get(c.Rank())
		for cycle := 0; cycle < 3; cycle++ {
			w, err := WinCreate[float64](c, 1024)
			if err != nil {
				return err
			}
			if !w.shmBacked {
				return fmt.Errorf("rank %d window not segment-backed on shm world", c.Rank())
			}
			if got := st.statsSnapshot().OutstandingWinBytes; got == 0 {
				return fmt.Errorf("rank %d: live window reports 0 heap bytes", c.Rank())
			}
			peer := (c.Rank() + 1) % c.Size()
			v := make([]float64, 1024)
			for i := range v {
				v[i] = float64(cycle)
			}
			if err := w.Put(peer, 0, v); err != nil {
				return err
			}
			if err := w.Fence(); err != nil {
				return err
			}
			if got := w.Local()[0]; got != float64(cycle) {
				return fmt.Errorf("rank %d cycle %d: peer Put not visible, local[0]=%v", c.Rank(), cycle, got)
			}
			if err := w.Free(); err != nil {
				return err
			}
			if got := st.statsSnapshot().OutstandingWinBytes; got != 0 {
				return fmt.Errorf("rank %d cycle %d: %d heap bytes unreclaimed after Free", c.Rank(), cycle, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinFreeIdempotent: double Free is safe, and ops after Free fail.
func TestWinFreeIdempotent(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		w, err := WinCreate[float64](c, 8)
		if err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Put(0, 0, []float64{1}); err == nil {
			return fmt.Errorf("Put on a freed window succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinAbortUnblocks: a world abort mid-epoch unblocks a rank waiting in
// Fence for acks that will never come (TCP: the frame path), instead of
// hanging it.
func TestWinAbortUnblocks(t *testing.T) {
	err := runWithWatchdog(t, 20*time.Second, func() error {
		return RunTCP(3, func(c *Comm) error {
			w, werr := WinCreate[float64](c, 8)
			if werr != nil {
				return werr
			}
			if c.Rank() == 2 {
				// Die before serving the epoch's barrier.
				return errDeliberate
			}
			_ = w.Put(1, 0, make([]float64, 8))
			ferr := w.Fence()
			if ferr == nil {
				return fmt.Errorf("Fence succeeded in an aborted world")
			}
			return ferr
		})
	})
	if err == nil {
		t.Fatal("aborted world reported success")
	}
	if !errors.Is(err, errDeliberate) {
		t.Fatalf("want the deliberate abort cause, got %v", err)
	}
}

// TestWinAccumulateDeadHolder: a process killed while it holds a shm
// window's Accumulate lock never releases the word, and a direct-path
// Accumulate on that window must not spin forever. Rank 0 plants rank 1's
// word as held by rank 2; rank 2 fails once rank 0 is spinning. Without
// recovery the revoke ends the spin with ErrWorldAborted; under
// WithRecovery rank 0 takes the lock over from the failed holder, folds,
// and releases it.
func TestWinAccumulateDeadHolder(t *testing.T) {
	skipNoShm(t)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"abort", nil},
		{"recovery", []Option{WithRecovery()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spinning := make(chan struct{})
			var accErr error
			var folded []float64
			err := runWithWatchdog(t, 10*time.Second, func() error {
				return RunShm(3, func(c *Comm) error {
					w, err := WinCreate[float64](c, 4)
					if err != nil {
						return err
					}
					switch c.Rank() {
					case 2:
						<-spinning
						time.Sleep(20 * time.Millisecond)
						return errDeliberate
					case 0:
						tg := w.target(1)
						if !w.directOK(tg, 1) || tg.spin == nil {
							return fmt.Errorf("rank 1's window is not on the shm direct path")
						}
						tg.spin.Store(2 + 1) // held by world rank 2
						close(spinning)
						accErr = w.Accumulate(1, 0, []float64{1, 1, 1, 1}, Sum)
						if accErr == nil && tg.spin.Load() != 0 {
							return fmt.Errorf("lock word %d after Accumulate, want released", tg.spin.Load())
						}
					}
					if tc.opts == nil {
						err = c.Barrier() // the revoke ends it
						w.Free()
						return err
					}
					nc, err := c.Recover()
					if err != nil {
						return err
					}
					if err := nc.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 1 {
						folded = append(folded, w.Local()...)
					}
					w.Free() // its barrier spans the failed rank; the service still stops
					return nil
				}, tc.opts...)
			})
			if tc.opts == nil {
				if !errors.Is(accErr, ErrWorldAborted) || !errors.Is(err, errDeliberate) {
					t.Fatalf("Accumulate = %v, world = %v; want the revoke caused by rank 2", accErr, err)
				}
				return
			}
			if err != nil || accErr != nil {
				t.Fatalf("Accumulate = %v, world = %v; want the lock taken over", accErr, err)
			}
			if want := []float64{1, 1, 1, 1}; fmt.Sprint(folded) != fmt.Sprint(want) {
				t.Fatalf("rank 1's window %v after the fold, want %v", folded, want)
			}
		})
	}
}

// TestWinOversizeShmWindow: a shm window larger than the segment's 8 MiB
// per-rank window heap is ordinary memory, and every op on it takes the
// active-message frames. 64 KiB Puts stage as lent rendezvous blocks that
// only the target's service frees, and that service acks on the pair the
// origin is sending on: both ranks putting at once must not wedge the
// staging region.
func TestWinOversizeShmWindow(t *testing.T) {
	skipNoShm(t)
	const blocks, per = 128, 8192 // 128 x 64 KiB
	err := runWithWatchdog(t, 20*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			w, err := WinCreate[float64](c, blocks*per)
			if err != nil {
				return err
			}
			defer w.Free()
			if w.shmBacked {
				return fmt.Errorf("a %d-byte window was placed in the segment", blocks*per*8)
			}
			src, peer := make([]float64, per), 1-c.Rank()
			for k := 0; k < blocks; k++ {
				src[0] = float64(c.Rank()*blocks + k)
				if err := w.Put(peer, k*per, src); err != nil {
					return err
				}
			}
			if err := w.Fence(); err != nil {
				return err
			}
			for k := 0; k < blocks; k++ {
				if got, want := w.Local()[k*per], float64(peer*blocks+k); got != want {
					return fmt.Errorf("rank %d block %d = %v, want %v", c.Rank(), k, got, want)
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWinPutEpoch is one access epoch of RMA's three data paths: at
// np = 2 each rank Puts 128 blocks of 1 KiB into its peer's window, then
// Fences. local copies through the in-process registry, shm through the
// segment, tcp sends every Put as two active-message frames (the path a shm
// window takes when it does not fit the segment's window heap, too).
func BenchmarkWinPutEpoch(b *testing.B) {
	const blocks, per = 128, 128 // 128 float64 = 1 KiB
	rows := []launcher{{"local", Run}, {"tcp", RunTCP}}
	if shmSupported {
		rows = append(rows, launcher{"shm", RunShm})
	}
	for _, l := range rows {
		b.Run(l.name, func(b *testing.B) {
			err := l.run(2, func(c *Comm) error {
				w, err := WinCreate[float64](c, blocks*per)
				if err != nil {
					return err
				}
				defer w.Free()
				src, peer := make([]float64, per), 1-c.Rank()
				if c.Rank() == 0 {
					b.SetBytes(blocks * per * 8)
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					for k := 0; k < blocks; k++ {
						if err := w.Put(peer, k*per, src); err != nil {
							return err
						}
					}
					if err := w.Fence(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
