package mpi

import (
	"fmt"
	"reflect"
	"testing"
)

// The vector-collective parity property: every *Slice collective is
// element-equal to its scalar counterpart — across world sizes (including
// non-powers-of-two, which exercise the ring's remainder segments), payload
// sizes straddling the algorithm threshold, and every transport (local fast
// path, TCP, shm). All test data is integer-valued, so elementwise sums are
// exact regardless of reduction order and "element-equal" is well-defined
// even for float64 payloads.

// parityRunners enumerates the transport configurations the parity property
// must hold on, shm included on platforms that support it.
func parityRunners() map[string]func(np int, main func(c *Comm) error, opts ...Option) error {
	runners := map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"local": Run,
		"tcp":   RunTCP,
	}
	if shmSupported {
		runners["shm"] = RunShm
	}
	return runners
}

// TestVectorCollectiveParity sweeps sizes on both sides of vectorThreshold
// (1024 elements) and one that spans a full bcastChunk (8192) plus a short
// tail. On shm the two largest cross the 16 KiB eager ceiling, so the sweep
// also runs rendezvous mid-world.
func TestVectorCollectiveParity(t *testing.T) {
	sizes := []int{0, 1, 3, 1024, 1025, 8195}
	nps := []int{1, 2, 3, 4, 8}
	for name, runner := range parityRunners() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, np := range nps {
				t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
					for _, sz := range sizes {
						if err := runner(np, func(c *Comm) error {
							return checkVectorParity(c, sz)
						}); err != nil {
							t.Fatalf("np=%d size=%d: %v", np, sz, err)
						}
					}
				})
			}
		})
	}
}

// TestVectorParityGobElements runs the above-threshold vector collectives on
// parityPoint, an element type no transport carries typed or raw: every
// segment travels as gob and is decoded through the receiver's scratch
// buffer. The combine is commutative and associative, so the ring's
// reduction order cannot show in the result.
func TestVectorParityGobElements(t *testing.T) {
	combine := func(a, b parityPoint) parityPoint {
		return parityPoint{Name: max(a.Name, b.Name), X: a.X + b.X, Y: max(a.Y, b.Y)}
	}
	for name, runner := range parityRunners() {
		t.Run(name, func(t *testing.T) {
			for _, np := range []int{2, 3} {
				for _, sz := range []int{1025, 2050} {
					if err := runner(np, func(c *Comm) error {
						r := c.Rank()
						v := make([]parityPoint, sz)
						for i := range v {
							v[i] = parityPoint{Name: fmt.Sprint("p", r, "-", i%7), X: float64(r*1000+i) + 0.5, Y: float64((r + i) % 5)}
						}
						want, err := Allreduce(c, append([]parityPoint(nil), v...), sliceReduce(combine))
						if err != nil {
							return fmt.Errorf("scalar Allreduce: %w", err)
						}
						got, err := AllreduceSlice(c, v, combine)
						if err != nil {
							return fmt.Errorf("AllreduceSlice: %w", err)
						}
						if !reflect.DeepEqual(want, got) {
							return fmt.Errorf("AllreduceSlice diverges from Allreduce")
						}
						blocks, err := Allgather(c, v)
						if err != nil {
							return fmt.Errorf("scalar Allgather: %w", err)
						}
						gat, err := AllgatherSlice(c, v)
						if err != nil {
							return fmt.Errorf("AllgatherSlice: %w", err)
						}
						var flat []parityPoint
						for _, b := range blocks {
							flat = append(flat, b...)
						}
						if !reflect.DeepEqual(flat, gat) {
							return fmt.Errorf("AllgatherSlice diverges from Allgather")
						}
						return nil
					}); err != nil {
						t.Fatalf("np=%d size=%d: %v", np, sz, err)
					}
				}
			}
		})
	}
}

// checkVectorParity runs every *Slice collective and its scalar counterpart
// in one world and demands element equality.
func checkVectorParity(c *Comm, sz int) error {
	n := c.Size()
	rank := c.Rank()
	sum := func(a, b float64) float64 { return a + b }

	// Equal-length per-rank input for the reductions and the broadcast.
	v := make([]float64, sz)
	for i := range v {
		v[i] = float64((rank + 1) * (i + 3) % 101)
	}

	scalar, err := Allreduce(c, append([]float64(nil), v...), sliceReduce(sum))
	if err != nil {
		return fmt.Errorf("scalar Allreduce: %w", err)
	}
	vector, err := AllreduceSlice(c, v, sum)
	if err != nil {
		return fmt.Errorf("AllreduceSlice: %w", err)
	}
	if !equalSlices(scalar, vector) {
		return fmt.Errorf("AllreduceSlice diverges from Allreduce at size %d", sz)
	}
	vecOp, err := AllreduceSliceOp(c, v, Sum)
	if err != nil {
		return fmt.Errorf("AllreduceSliceOp: %w", err)
	}
	if !equalSlices(scalar, vecOp) {
		return fmt.Errorf("AllreduceSliceOp diverges from Allreduce at size %d", sz)
	}

	// reduceSlice, the node step of the two-level AllreduceSlice, with an
	// arbitrary combine and with a built-in operator's loops.
	sred, err := Reduce(c, append([]float64(nil), v...), sliceReduce(sum), 0)
	if err != nil {
		return fmt.Errorf("scalar Reduce: %w", err)
	}
	for name, fo := range map[string]vecFold[float64]{"combine": foldWith(sum), "Sum": opFold[float64](Sum)} {
		vred, err := reduceSlice(c, v, sliceReduce(sum), fo)
		if err != nil {
			return fmt.Errorf("reduceSlice(%s): %w", name, err)
		}
		if rank == 0 {
			if !equalSlices(sred, vred) {
				return fmt.Errorf("reduceSlice(%s) diverges from Reduce at size %d", name, sz)
			}
		} else if vred != nil {
			return fmt.Errorf("reduceSlice(%s) returned %d elements off rank 0", name, len(vred))
		}
	}

	for root := 0; root < n; root++ {
		sb, err := Bcast(c, append([]float64(nil), v...), root)
		if err != nil {
			return fmt.Errorf("scalar Bcast: %w", err)
		}
		vb, err := bcastSlice(c, v, root)
		if err != nil {
			return fmt.Errorf("bcastSlice: %w", err)
		}
		if !equalSlices(sb, vb) {
			return fmt.Errorf("bcastSlice diverges from Bcast at size %d root %d", sz, root)
		}
	}

	// Variable-length per-rank blocks for the gather family.
	blk := make([]float64, sz%7+3*rank)
	for i := range blk {
		blk[i] = float64(rank*1000 + i)
	}
	sgat, err := Allgather(c, append([]float64(nil), blk...))
	if err != nil {
		return fmt.Errorf("scalar Allgather: %w", err)
	}
	vgat, err := AllgatherSlice(c, blk)
	if err != nil {
		return fmt.Errorf("AllgatherSlice: %w", err)
	}
	if !equalSlices(flatten(sgat), vgat) {
		return fmt.Errorf("AllgatherSlice diverges from Allgather at size %d", sz)
	}
	return nil
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func flatten(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// TestVectorParityInts runs the reduction parity on []int payloads: the
// other heavily used whitelisted element type, and the one the forestfire
// halo rides on.
func TestVectorParityInts(t *testing.T) {
	for _, np := range []int{1, 3, 4} {
		for _, sz := range []int{5, 1024, 1025, 2051} {
			err := Run(np, func(c *Comm) error {
				v := make([]int, sz)
				for i := range v {
					v[i] = (c.Rank() + 2) * i
				}
				want, err := Allreduce(c, append([]int(nil), v...), sliceReduce(func(a, b int) int { return a + b }))
				if err != nil {
					return err
				}
				got, err := AllreduceSlice(c, v, func(a, b int) int { return a + b })
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(want, got) {
					return fmt.Errorf("int AllreduceSlice mismatch at np=%d size=%d", np, sz)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVectorOpParity pins the operator-specialized entry points against the
// closure variants for every built-in operator, on worlds that exercise both
// reduce-scatter shapes (np=4 halving, np=3 ring) and on transports that
// exercise every receive representation (typed local values, raw wire views;
// shm staging views where supported). The data is
// negative-heavy and includes zeros on purpose: the specialized paths
// first-touch a zeroed accumulator from v instead of starting from a copy of
// it, and a fold that ever read those untouched zeros would corrupt exactly
// Max over negative inputs or Prod over anything.
func TestVectorOpParity(t *testing.T) {
	ops := []Op{Sum, Prod, Max, Min}
	for name, runner := range parityRunners() {
		t.Run(name, func(t *testing.T) {
			for _, np := range []int{3, 4} {
				for _, sz := range []int{1025, 2050} {
					err := runner(np, func(c *Comm) error {
						v := make([]float64, sz)
						for i := range v {
							// Negative-dominated, zero-crossing, exactly
							// representable halves; Prod stays finite because
							// most magnitudes are below one.
							v[i] = -2 + float64((c.Rank()*7+i*3)%9)*0.5
						}
						for _, op := range ops {
							want, err := AllreduceSlice(c, v, Combine[float64](op))
							if err != nil {
								return fmt.Errorf("AllreduceSlice(%v): %w", op, err)
							}
							got, err := AllreduceSliceOp(c, v, op)
							if err != nil {
								return fmt.Errorf("AllreduceSliceOp(%v): %w", op, err)
							}
							if !reflect.DeepEqual(want, got) {
								return fmt.Errorf("AllreduceSliceOp(%v) diverges at np=%d size=%d", op, c.Size(), sz)
							}
							wantRed, err := reduceSlice(c, v, sliceReduce(Combine[float64](op)), foldWith(Combine[float64](op)))
							if err != nil {
								return fmt.Errorf("reduceSlice(%v): %w", op, err)
							}
							gotRed, err := reduceSlice(c, v, sliceReduce(Combine[float64](op)), opFold[float64](op))
							if err != nil {
								return fmt.Errorf("reduceSlice with opFold(%v): %w", op, err)
							}
							if !reflect.DeepEqual(wantRed, gotRed) {
								return fmt.Errorf("opFold(%v) diverges in reduceSlice at np=%d size=%d", op, c.Size(), sz)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestVectorThresholdFallback pins the algorithm switches at their exact
// sizes. At 1024 elements (vectorThreshold) AllreduceSlice produces no
// vector traffic (it defers to the scalar tree); at 1025, power-of-two worlds
// take recursive halving/doubling (n·log2(n) messages per phase) and the rest
// take the ring (n·(n−1)). bcastSlice sends one length header and then
// ⌈size/8192⌉ chunks (bcastChunk) down each tree edge: 2 at 16384, 3 at 16385.
func TestVectorThresholdFallback(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }

	for _, tc := range []struct {
		np        int
		size      int
		wantVec   int // messages under each vector tag
		wantScala bool
	}{
		{np: 4, size: 1024, wantVec: 0, wantScala: true},
		{np: 4, size: 1025, wantVec: 4 * 2, wantScala: false}, // halving/doubling: log2(4) per rank
		{np: 3, size: 1025, wantVec: 3 * 2, wantScala: false}, // ring: n−1 per rank
	} {
		mc := NewMessageCounter()
		err := Run(tc.np, func(c *Comm) error {
			v := make([]float64, tc.size)
			_, err := AllreduceSlice(c, v, sum)
			return err
		}, WithCounter(mc))
		if err != nil {
			t.Fatal(err)
		}
		if got := mc.Tag(tagVecRed); got != tc.wantVec {
			t.Errorf("np %d size %d: %d reduce-scatter messages, want %d", tc.np, tc.size, got, tc.wantVec)
		}
		if got := mc.Tag(tagVecAg); got != tc.wantVec {
			t.Errorf("np %d size %d: %d allgather messages, want %d", tc.np, tc.size, got, tc.wantVec)
		}
		if scalarUsed := mc.Tag(tagReduce) > 0; scalarUsed != tc.wantScala {
			t.Errorf("np %d size %d: scalar tree used = %v, want %v", tc.np, tc.size, scalarUsed, tc.wantScala)
		}
	}

	for _, tc := range []struct{ size, wantMsgs int }{
		{size: 1024, wantMsgs: 2},  // header + the whole slice
		{size: 16384, wantMsgs: 3}, // header + 2 full chunks
		{size: 16385, wantMsgs: 4}, // header + 2 full chunks + a 1-element tail
	} {
		mc := NewMessageCounter()
		err := Run(2, func(c *Comm) error {
			got, err := bcastSlice(c, make([]float64, tc.size), 0)
			if err == nil && len(got) != tc.size {
				err = fmt.Errorf("rank %d got %d elements, want %d", c.Rank(), len(got), tc.size)
			}
			return err
		}, WithCounter(mc))
		if err != nil {
			t.Fatal(err)
		}
		if got := mc.Tag(tagVecBcast); got != tc.wantMsgs {
			t.Errorf("bcastSlice size %d: %d messages, want %d", tc.size, got, tc.wantMsgs)
		}
	}
}

// segRange must tile [0, n) exactly, remainder-first, for every shape the
// rings can see.
func TestSegRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 1000} {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			prev := 0
			for i := 0; i < k; i++ {
				lo, hi := segRange(n, i, k)
				if lo != prev {
					t.Fatalf("segRange(%d,%d,%d): lo %d, want %d", n, i, k, lo, prev)
				}
				if hi < lo {
					t.Fatalf("segRange(%d,%d,%d): hi %d < lo %d", n, i, k, hi, lo)
				}
				if w := hi - lo; w != n/k && w != n/k+1 {
					t.Fatalf("segRange(%d,%d,%d): width %d not near-equal", n, i, k, w)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("segRange(%d,*,%d) covers %d, want %d", n, k, prev, n)
			}
		}
	}
}
