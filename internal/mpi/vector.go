package mpi

import (
	"fmt"
	"slices"
)

// Vector collectives: the large-payload counterparts of the scalar
// collectives in collective.go. The scalar algorithms move one whole value
// per hop, which is the right shape when the value is a counter — and the
// wrong one when it is a megabyte slab: a tree Allreduce serializes
// O(log n) full copies of the payload onto its critical path. The *Slice
// family keeps the same call discipline (every rank calls, same order) but
// moves bytes the way bandwidth-optimal MPI implementations do:
//
//   - AllreduceSlice uses the Rabenseifner construction — a reduce-scatter
//     followed by an allgather — so each rank sends and receives
//     2·(n−1)/n of the payload instead of log n full copies. Power-of-two
//     worlds take recursive halving/doubling (log n rounds); the rest take
//     the ring (n−1 rounds, same byte volume). On a multi-node communicator
//     its node steps are reduceSlice (the reduce-scatter and a gather to the
//     node leader) and bcastSlice (fixed-size chunks pipelined down the
//     binomial tree, so tree depth overlaps with transmission instead of
//     multiplying it).
//   - AllgatherSlice moves contiguous blocks of one backing array, instead
//     of boxing elements (or rows) into per-element messages.
//
// Payloads of at most vectorThreshold (1024) elements take the scalar tree,
// with the slice as the value — at small sizes the ring's extra rounds cost
// more latency than its bandwidth discipline saves.
//
// Everything is built on the same reserved-tag point-to-point layer as the
// scalar collectives, so the failure model carries over unchanged: a rank
// failing mid-ring surfaces ErrWorldAborted (or a retryable
// *RankFailedError under WithRecovery) at the survivors' next step, and
// WithDeadline reports a stalled pipeline as a blocked Recv under the
// collective's tag.

// Reserved tags for the vector collectives (-3..-13 live in message.go).
const (
	tagVecRed   = -14 // ring reduce-scatter + reduceSlice's segment gather
	tagVecAg    = -15 // ring allgather (segment and block variants)
	tagVecBcast = -16 // pipelined broadcast (length header + chunks)
)

// vectorThreshold is the element count at or below which AllreduceSlice and
// reduceSlice take the whole-slice tree, one message per hop instead of ring
// rounds: where ring-round latency and per-hop bandwidth break even for 8-byte
// elements on the measured transports. bcastChunk is bcastSlice's pipeline
// segment, in elements: large enough that framing overhead is noise, small
// enough that a 3-level tree streams. Both are constants, so every rank of
// every world takes the same path for the same call.
const (
	vectorThreshold = 1024
	bcastChunk      = 8192
)

// sliceReduce lifts an element combine to a whole-slice combine, folding b
// into a in place (a is the runtime's private accumulator); it panics on
// mismatched lengths, as CombineSlices does.
func sliceReduce[T any](combine func(a, b T) T) func(a, b []T) []T {
	return func(a, b []T) []T {
		if len(a) != len(b) {
			panic(fmt.Sprintf("mpi: slice reduction over mismatched lengths %d and %d", len(a), len(b)))
		}
		for i := range a {
			a[i] = combine(a[i], b[i])
		}
		return a
	}
}

// vecFold is what a reduction folds with. fold is the vector collectives'
// segment fold, dst[i] = src[i] op in[i]: with src the rank's contribution it
// first-touches the fresh accumulator, with src == dst it accumulates in
// place. combine is one element's op, as the whole-slice tree applies it.
type vecFold[T any] interface {
	fold(dst, src, in []T)
	combine(a, b T) T
}

// foldWith lifts an element combine to a vecFold, the accumulator (or the
// rank's contribution) its first argument; opFold has direct loops instead.
func foldWith[T any](combine func(a, b T) T) vecFold[T] { return combineFold[T](combine) }

type combineFold[T any] func(a, b T) T

func (f combineFold[T]) combine(a, b T) T { return f(a, b) }

func (f combineFold[T]) fold(dst, src, in []T) {
	dst, src = dst[:len(in)], src[:len(in)]
	for i, x := range in {
		dst[i] = f(src[i], x)
	}
}

// AllreduceSlice combines every rank's v elementwise and delivers the full
// result to all ranks: MPI_Allreduce over a vector. All ranks must pass
// slices of the same length. combine must be associative; the reduction
// order within each element is deterministic for a given world size but
// differs from Allreduce's tree order, so exact floating-point equality
// with other algorithms holds only for order-insensitive data (integers,
// exactly-representable sums).
//
// Above vectorThreshold it runs a reduce-scatter followed by an
// allgather (Rabenseifner): each rank moves 2·(n−1)/n of the payload in
// total, against the log n full payloads of the scalar tree — the difference
// between latency-bound and bandwidth-bound regimes. Power-of-two worlds use
// recursive halving/doubling, 2·log2(n) rounds in all; other sizes use the
// ring, 2·(n−1) rounds of smaller messages. The returned slice is freshly
// allocated; v is not mutated.
func AllreduceSlice[T any](c *Comm, v []T, combine func(a, b T) T) ([]T, error) {
	return allreduceSlice(c, v, foldWith(combine))
}

// AllreduceSliceOp is AllreduceSlice for a built-in operator. Same
// algorithm, same deterministic per-element order — but the reduction loops
// are specialized per operator instead of calling a combine function once
// per element, which at megabyte payloads is the difference between a
// bandwidth-bound fold and a call-bound one.
func AllreduceSliceOp[T Number](c *Comm, v []T, op Op) ([]T, error) {
	return allreduceSlice(c, v, opFold[T](op))
}

// allreduceSlice is the shared body: fo's combine serves the below-threshold
// whole-slice tree, its fold the vector reduce-scatter.
func allreduceSlice[T any](c *Comm, v []T, fo vecFold[T]) ([]T, error) {
	n := c.Size()
	if n == 1 || len(v) <= vectorThreshold {
		// make+copy rather than append into a fresh slice lets the runtime
		// skip zeroing the result before the copy lands.
		acc := make([]T, len(v))
		copy(acc, v)
		if n == 1 {
			return acc, nil
		}
		if err := allreduceWhole(c, acc, fo); err != nil {
			return nil, err
		}
		return acc, nil
	}
	// Multi-node communicator: two-level schedule — reduce within each node,
	// allreduce among the leaders, broadcast back within each node. Only the
	// leader-to-leader phase crosses the node boundary, so only ~1/ranks-per-
	// node of the flat algorithm's traffic contends for the inter-node link.
	if h := c.hier(); h != nil {
		return hierAllreduceSlice(c, h, v, fo)
	}
	// The accumulator starts empty, not as a copy of v: every segment's first
	// fold reads the rank's contribution straight out of v, round-one sends
	// ship v's segments, and the allgather overwrites everything else.
	acc := make([]T, len(v))
	if isPow2(n) {
		if err := halvingReduceScatter(c, v, acc, fo); err != nil {
			return nil, err
		}
		if err := doublingAllgatherSegs(c, acc); err != nil {
			return nil, err
		}
		return acc, nil
	}
	if err := ringReduceScatter(c, v, acc, fo); err != nil {
		return nil, err
	}
	if err := ringAllgatherSegs(c, acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// allreduceWhole is allreduceSlice at or below vectorThreshold, in place on
// acc: Allreduce's tree with the slice as the value, up to rank 0 under
// tagReduce (each parent combining its children's in order) and down under
// tagBcast; on a multi-node communicator, each node's tree with the leaders'
// allreduce at the top. A non-root rank's send up and receive down are one
// exchange step.
func allreduceWhole[T any](c *Comm, acc []T, fo vecFold[T]) error {
	var top *Comm
	if h := c.hier(); h != nil {
		c, top = h.nodeComm, h.leaderComm
	}
	const format = "mpi: AllreduceSlice: rank %d sent %d elements, want %d (mismatched slice lengths across ranks?)"
	combine := func(dst, in []T) {
		for i, x := range in {
			dst[i] = fo.combine(dst[i], x)
		}
	}
	kid, end := treeKids(c.rank, c.Size())
	for k := kid; k < end; k++ {
		if err := recvSegInto(c, k, tagReduce, acc, &cellsOf[T](c).scratch, combine, format); err != nil {
			return err
		}
	}
	var err error
	if parent := treeParent(c.rank); c.rank != 0 {
		err = exchangeSeg(c, parent, tagReduce, acc, parent, tagBcast, acc, format)
	} else if top != nil {
		err = allreduceWhole(top, acc, fo)
	}
	for ; kid < end && err == nil; kid++ {
		err = sendSeg(c, kid, tagBcast, acc)
	}
	return err
}

// reduceSlice combines every rank's v elementwise and delivers the full
// result to rank 0 (nil at the other ranks): the node step under
// hierAllreduceSlice, on a flat node communicator. Above vectorThreshold it
// runs the reduce-scatter and then gathers the reduced segments at rank 0 —
// the same 2·(n−1)/n send volume per rank as AllreduceSlice on the scatter
// half, with only rank 0 paying the gather's receive volume.
func reduceSlice[T any](c *Comm, v []T, fo vecFold[T]) ([]T, error) {
	n := c.Size()
	if n == 1 || len(v) <= vectorThreshold {
		acc := make([]T, len(v))
		copy(acc, v)
		if n == 1 {
			return acc, nil
		}
		return Reduce(c, acc, sliceReduce(fo.combine), 0)
	}
	// As in allreduceSlice, the accumulator is first-touched from v by the
	// reduce-scatter folds; only the rank's own reduced segment is ever read
	// back out of it, so no upfront copy.
	acc := make([]T, len(v))
	pow2 := isPow2(n)
	if pow2 {
		if err := halvingReduceScatter(c, v, acc, fo); err != nil {
			return nil, err
		}
	} else {
		if err := ringReduceScatter(c, v, acc, fo); err != nil {
			return nil, err
		}
	}
	// After the reduce-scatter, rank r owns the fully reduced segment r
	// (halving path) or (r+1) mod n (ring path). Everyone ships their segment
	// to rank 0, which assembles.
	segOf := func(r int) int {
		if pow2 {
			return r
		}
		return (r + 1) % n
	}
	lo, hi := segRange(len(acc), segOf(c.rank), n)
	if c.rank != 0 {
		if err := sendSeg(c, 0, tagVecRed, acc[lo:hi]); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]T, len(acc))
	copy(out[lo:hi], acc[lo:hi])
	for r := 1; r < n; r++ {
		lo, hi := segRange(len(out), segOf(r), n)
		if err := recvSegCopy(c, r, tagVecRed, out[lo:hi], "mpi: reduceSlice: rank %d sent segment of %d elements, want %d (mismatched slice lengths across ranks?)"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ringReduceScatter runs the reduce-scatter half of the Rabenseifner
// construction: n−1 ring steps, in step s each rank sends segment
// (rank−s) mod n to its right neighbour and folds the incoming segment
// (rank−s−1) mod n with its own contribution. Each step touches a distinct
// segment, so every fold is a first touch, acc[seg] = v[seg] op in. Step 0's
// send ships v's segment; later steps forward the partial sums folded into
// acc the step before. When it returns,
// rank r holds the fully reduced segment (r+1) mod n; the other acc segments
// hold partial sums (or zeros) and are overwritten by the allgather (or
// ignored).
func ringReduceScatter[T any](c *Comm, v, acc []T, fo vecFold[T]) error {
	n := c.Size()
	r := c.rank
	left, right := ringNeighbors(r, n)
	scratch := &cellsOf[T](c).scratch
	src := v // what this step sends from: v, then acc
	for step := 0; step < n-1; step++ {
		out := ((r-step)%n + n) % n
		in := ((r-step-1)%n + n) % n
		lo, hi := segRange(len(acc), out, n)
		// Sends are buffered (and copy or serialize before returning), so
		// send-then-receive cannot deadlock the ring, and mutating acc's
		// other segments below never races with this send.
		if err := sendSeg(c, right, tagVecRed, src[lo:hi]); err != nil {
			return err
		}
		lo, hi = segRange(len(acc), in, n)
		fold := func(dst, in []T) { fo.fold(dst, v[lo:hi], in) }
		if err := recvSegInto(c, left, tagVecRed, acc[lo:hi], scratch, fold, "mpi: ring reduce-scatter: rank %d sent segment of %d elements, want %d (mismatched slice lengths across ranks?)"); err != nil {
			return err
		}
		src = acc
	}
	return nil
}

// ringAllgatherSegs runs the allgather half: n−1 ring steps circulating the
// reduced segments until every rank holds all of them. In step s each rank
// sends segment (rank+1−s) mod n — its own reduced segment first, then
// whatever it most recently received — and the incoming segment
// (rank−s) mod n lands in place (exchangeSeg).
func ringAllgatherSegs[T any](c *Comm, acc []T) error {
	n := c.Size()
	r := c.rank
	left, right := ringNeighbors(r, n)
	for step := 0; step < n-1; step++ {
		slo, shi := segRange(len(acc), ((r+1-step)%n+n)%n, n)
		lo, hi := segRange(len(acc), ((r-step)%n+n)%n, n)
		if err := exchangeSeg(c, right, tagVecAg, acc[slo:shi], left, tagVecAg, acc[lo:hi], "mpi: ring allgather: rank %d sent segment of %d elements, want %d"); err != nil {
			return err
		}
	}
	return nil
}

// halvingReduceScatter runs the reduce-scatter half of the Rabenseifner
// construction by recursive vector halving, for power-of-two world sizes:
// log2(n) rounds. In each round a rank exchanges half of its live segment
// range with a partner one group-half away — sending the half it is giving
// up, folding the incoming copy of the half it keeps — then recurses into
// the kept half. Each round moves half the previous round's bytes, so the
// total send volume is the same (n−1)/n of the payload as the ring, in
// log2(n) messages instead of n−1. When it returns, rank r holds the fully
// reduced segment r (segRange decomposition); the rest of acc holds partial
// sums or untouched zeros. The first round reads the rank's contribution
// straight out of v: the send ships v's half, the fold first-touches the kept
// half as acc = v op in. Later rounds operate on acc's partial sums alone.
func halvingReduceScatter[T any](c *Comm, v, acc []T, fo vecFold[T]) error {
	n := c.Size()
	r := c.rank
	scratch := &cellsOf[T](c).scratch
	// Invariant: the live group is ranks [base, base+g) owning segments
	// [base, base+g), with r in the group; both shrink together, so the
	// group-relative rank order always matches the segment order.
	base, g := 0, n
	src := v // what this round sends from and folds over: v, then acc
	for g > 1 {
		half := g / 2
		rel := r - base
		partner := base + (rel ^ half)
		mid := base + half
		var keepLo, keepHi, sendLo, sendHi int // segment indices
		if rel < half {
			keepLo, keepHi, sendLo, sendHi = base, mid, mid, base+g
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, base+g, base, mid
		}
		// Both partners send before receiving; sends are buffered, so the
		// symmetric exchange cannot deadlock.
		if err := sendSeg(c, partner, tagVecRed, src[segStart(len(acc), sendLo, n):segStart(len(acc), sendHi, n)]); err != nil {
			return err
		}
		kl, kh := segStart(len(acc), keepLo, n), segStart(len(acc), keepHi, n)
		fold := func(dst, in []T) { fo.fold(dst, src[kl:kh], in) }
		if err := recvSegInto(c, partner, tagVecRed, acc[kl:kh], scratch, fold, "mpi: halving reduce-scatter: rank %d sent %d elements, want %d (mismatched slice lengths across ranks?)"); err != nil {
			return err
		}
		if rel >= half {
			base += half
		}
		g = half
		src = acc
	}
	return nil
}

// segStart is where segment s of n begins in a slice of total elements
// (segRange decomposition); segment n begins at its end.
func segStart(total, s, n int) int {
	if s == n {
		return total
	}
	lo, _ := segRange(total, s, n)
	return lo
}

// doublingAllgatherSegs runs the allgather half by recursive doubling,
// unwinding halvingReduceScatter's recursion: log2(n) rounds of exchanges
// with the same partners in reverse order, each round doubling the
// contiguous segment range every rank holds, until all ranks hold [0, n).
func doublingAllgatherSegs[T any](c *Comm, acc []T) error {
	n := c.Size()
	r := c.rank
	for g := 2; g <= n; g *= 2 {
		half := g / 2
		groupBase := r / g * g
		partner := groupBase + ((r - groupBase) ^ half)
		// Entering this round rank x holds segments [x/half*half, +half).
		held := func(x int) []T {
			return acc[segStart(len(acc), x/half*half, n):segStart(len(acc), x/half*half+half, n)]
		}
		if err := exchangeSeg(c, partner, tagVecAg, held(r), partner, tagVecAg, held(partner), "mpi: doubling allgather: rank %d sent %d elements, want %d"); err != nil {
			return err
		}
	}
	return nil
}

// bcastSlice distributes root's slice v to every rank: MPI_Bcast over a
// vector, the broadcast step under hierAllreduceSlice. Non-root ranks' v
// arguments are ignored (the slice length travels with the data). Root
// returns v itself; other ranks return a fresh slice.
//
// Large payloads are pipelined: root streams fixed-size chunks down the
// binomial tree, and every interior rank forwards chunk i to its children
// before receiving chunk i+1 — so the tree's depth overlaps with
// transmission instead of multiplying it, turning O(depth · bytes) into
// O(depth · chunk + bytes) per link. A payload of one chunk at most, as every
// payload at or below vectorThreshold is, travels whole.
func bcastSlice[T any](c *Comm, v []T, root int) ([]T, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	size := c.Size()
	if size == 1 {
		return v, nil
	}
	vrank := toVirtual(c.rank, root, size)
	kidLo, kidHi := treeKids(vrank, size)

	// The length header travels first: it tells each rank the total element
	// count, from which root and non-root alike derive the same chunks
	// without any further agreement.
	var n int
	var parent int
	if vrank == 0 {
		n = len(v)
	} else {
		parent = toReal(treeParent(vrank), root, size)
		if _, err := c.recvReserved(parent, tagVecBcast, &n); err != nil {
			return nil, err
		}
	}
	for kid := kidLo; kid < kidHi; kid++ {
		if err := c.sendReserved(toReal(kid, root, size), tagVecBcast, n); err != nil {
			return nil, err
		}
	}

	buf := v
	if vrank != 0 {
		buf = make([]T, n)
	}
	for lo := 0; lo == 0 || lo < n; lo += bcastChunk { // an empty payload is one empty chunk
		hi := min(lo+bcastChunk, n)
		if vrank != 0 {
			if err := recvSegCopy(c, parent, tagVecBcast, buf[lo:hi], "mpi: bcastSlice: got chunk of %[2]d elements, want %[3]d"); err != nil {
				return nil, err
			}
		}
		for kid := kidLo; kid < kidHi; kid++ {
			if err := sendSeg(c, toReal(kid, root, size), tagVecBcast, buf[lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// AllgatherSlice concatenates every rank's slice, in rank order, at every
// rank: MPI_Allgatherv over one backing array. Per-rank lengths may differ
// (each block travels with its length). It is the ring of Allgather with a
// slice as the value — each step one exchange, the block lent and landed —
// and the result is a single freshly allocated slice rather than a slice of
// slices.
func AllgatherSlice[T any](c *Comm, v []T) ([]T, error) {
	blocks, err := Allgather(c, v)
	if err != nil {
		return nil, err
	}
	return slices.Concat(blocks...), nil
}
