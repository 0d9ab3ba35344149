package mpi

import "fmt"

// Collective operations. All members of a communicator must call each
// collective, and must make their collective calls in the same order — the
// same rule MPI imposes. The implementations below use only the runtime's
// own point-to-point layer (with reserved tags), which is both how early
// MPI implementations worked and how the master-worker patternlet teaches
// students collectives *could* be built. Building on that layer also means
// the failure model comes for free: a collective stalled on a failed rank
// fails with ErrWorldAborted when the world is revoked, and WithDeadline
// reports it as a blocked Recv under the collective's reserved tag.
//
// On a communicator whose ranks span more than one modeled node (see
// WithTopology and the cluster package), the default algorithms of Bcast,
// Reduce, Allreduce, and Barrier switch to the two-level hierarchical
// schedules in hier.go; the flat algorithms below remain the building
// blocks those schedules run within each level, and the fallback whenever
// the topology is degenerate or hierarchy is disabled.

// Reserved tags for the extended collectives (the patternlet set's tags
// live in message.go).
const (
	tagExscan  = -10
	tagRedScat = -11
	tagDissem  = -12
)

// Barrier blocks until every rank of the communicator has entered it:
// MPI_Barrier. It is implemented as a dissemination barrier — ceil(log2 n)
// rounds, in each of which every rank signals a rank a power-of-two ahead
// and waits on the mirror-image rank behind — so its critical path is
// O(log n) rounds rather than the O(n) of the linear gather-and-release
// (still available as BarrierWith(BarrierLinear) for the ablation study).
// On a multi-node communicator it runs the two-level hierarchical barrier
// instead: gather-and-release within each node around a dissemination
// barrier among the node leaders.
func (c *Comm) Barrier() error {
	if h := c.hier(); h != nil {
		return c.hierBarrier(h)
	}
	return c.disseminationBarrier()
}

// linearBarrier gathers arrival tokens at rank 0 and broadcasts a release:
// the textbook O(n)-round algorithm, kept for BarrierWith(BarrierLinear).
func (c *Comm) linearBarrier() error {
	const token = 0
	if c.rank == 0 {
		for src := 1; src < c.Size(); src++ {
			if _, err := c.recvReserved(src, tagBarrier, nil); err != nil {
				return err
			}
		}
		for dst := 1; dst < c.Size(); dst++ {
			if err := c.sendReserved(dst, tagBarrier, token); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.sendReserved(0, tagBarrier, token); err != nil {
		return err
	}
	_, err := c.recvReserved(0, tagBarrier, nil)
	return err
}

// sendReserved sends a value under a reserved (negative) tag.
func (c *Comm) sendReserved(dest, tag int, v any) error {
	return c.sendValue(dest, tag, v)
}

// recvReserved receives a value under a reserved tag; v may be nil to
// discard the payload.
func (c *Comm) recvReserved(source, tag int, v any) (Status, error) {
	return c.recv(source, tag, v)
}

// Bcast distributes root's value v to every rank and returns it: MPI_Bcast
// (comm.bcast in mpi4py). Non-root ranks' v arguments are ignored. The
// value travels down a binary tree rooted at root — O(log n) communication
// rounds — or, on a multi-node communicator, down the two-level hierarchy
// (leaders first, then within each node).
func Bcast[T any](c *Comm, v T, root int) (T, error) {
	var zero T
	if err := c.checkRank(root); err != nil {
		return zero, err
	}
	if h := c.hier(); h != nil {
		return hierBcast(c, h, v, root)
	}
	size := c.Size()
	vrank := toVirtual(c.rank, root, size)
	if vrank != 0 {
		parent := toReal(treeParent(vrank), root, size)
		if _, err := c.recvReserved(parent, tagBcast, &v); err != nil {
			return zero, err
		}
	}
	for _, kid := range treeChildren(vrank, size) {
		if err := c.sendReserved(toReal(kid, root, size), tagBcast, v); err != nil {
			return zero, err
		}
	}
	return v, nil
}

// ReduceAlgorithm selects how Reduce combines values, exposed so the
// benchmark harness can compare the two classic strategies.
type ReduceAlgorithm int

const (
	// ReduceLinear has every rank send its value to root, which combines
	// them in rank order: O(n) messages at root, deterministic order.
	ReduceLinear ReduceAlgorithm = iota
	// ReduceTree combines values up a binary tree: O(log n) rounds.
	ReduceTree
)

// Reduce combines every rank's v with the given function and delivers the
// result to root: MPI_Reduce. Ranks other than root receive the zero value.
// combine must be associative. The default algorithm is the binary tree
// (the same shape Bcast uses): O(log n) communication rounds on the
// critical path. Programs that need the strict rank-order fold
// v0 ⊕ v1 ⊕ ... ⊕ v(n-1) — e.g. to make a non-associative floating-point
// sum deterministic against a sequential reference — should call
// ReduceWith(..., ReduceLinear).
func Reduce[T any](c *Comm, v T, combine func(a, b T) T, root int) (T, error) {
	return ReduceWith(c, v, combine, root, ReduceTree)
}

// ReduceWith is Reduce with an explicit algorithm choice. Only the default
// tree algorithm is eligible for the hierarchical two-level schedule:
// ReduceLinear's contract is the strict rank-order fold, which a grouped
// intra-node pre-reduction would reorder.
func ReduceWith[T any](c *Comm, v T, combine func(a, b T) T, root int, algo ReduceAlgorithm) (T, error) {
	var zero T
	if err := c.checkRank(root); err != nil {
		return zero, err
	}
	if algo == ReduceTree {
		if h := c.hier(); h != nil {
			return hierReduce(c, h, v, combine, root)
		}
	}
	size := c.Size()
	switch algo {
	case ReduceLinear:
		if c.rank != root {
			if err := c.sendReserved(root, tagReduce, v); err != nil {
				return zero, err
			}
			return zero, nil
		}
		// Root collects every contribution, then folds in strict rank
		// order, so the result is deterministic even for non-associative
		// floating-point combines.
		vals := make([]T, size)
		vals[root] = v
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if _, err := c.recvReserved(r, tagReduce, &vals[r]); err != nil {
				return zero, err
			}
		}
		acc := vals[0]
		for r := 1; r < size; r++ {
			acc = combine(acc, vals[r])
		}
		return acc, nil
	case ReduceTree:
		vrank := toVirtual(c.rank, root, size)
		acc := v
		for _, kid := range treeChildren(vrank, size) {
			var kv T
			if _, err := c.recvReserved(toReal(kid, root, size), tagReduce, &kv); err != nil {
				return zero, err
			}
			acc = combine(acc, kv)
		}
		if vrank != 0 {
			parent := toReal(treeParent(vrank), root, size)
			if err := c.sendReserved(parent, tagReduce, acc); err != nil {
				return zero, err
			}
			return zero, nil
		}
		return acc, nil
	default:
		return zero, fmt.Errorf("mpi: unknown reduce algorithm %d", algo)
	}
}

// Allreduce combines every rank's v and delivers the result to all ranks:
// MPI_Allreduce, implemented as a tree Reduce-to-0 followed by a tree
// Bcast — O(log n) rounds end to end. On a multi-node communicator it runs
// the two-level schedule instead: reduce within each node, allreduce among
// the leaders, broadcast within each node — exactly one leader-to-leader
// exchange crosses the node boundary.
func Allreduce[T any](c *Comm, v T, combine func(a, b T) T) (T, error) {
	if h := c.hier(); h != nil {
		return hierAllreduce(c, h, v, combine)
	}
	red, err := Reduce(c, v, combine, 0)
	if err != nil {
		var zero T
		return zero, err
	}
	return Bcast(c, red, 0)
}

// Scatter hands out one element of root's items slice to each rank (rank i
// receives items[i]) and returns the local element: MPI_Scatter
// (comm.scatter). items is ignored at non-root ranks; at root it must have
// exactly Size() elements.
func Scatter[T any](c *Comm, items []T, root int) (T, error) {
	var zero T
	if err := c.checkRank(root); err != nil {
		return zero, err
	}
	if c.rank == root {
		if len(items) != c.Size() {
			return zero, fmt.Errorf("mpi: Scatter needs exactly %d items at root, got %d", c.Size(), len(items))
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.sendReserved(r, tagScatter, items[r]); err != nil {
				return zero, err
			}
		}
		return items[root], nil
	}
	var v T
	if _, err := c.recvReserved(root, tagScatter, &v); err != nil {
		return zero, err
	}
	return v, nil
}

// Gather collects every rank's v at root, returning the slice indexed by
// rank at root and nil elsewhere: MPI_Gather (comm.gather).
func Gather[T any](c *Comm, v T, root int) ([]T, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	if c.rank != root {
		if err := c.sendReserved(root, tagGather, v); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]T, c.Size())
	out[root] = v
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if _, err := c.recvReserved(r, tagGather, &out[r]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Allgather collects every rank's v at every rank: MPI_Allgather,
// implemented as the classic ring. In step s each rank forwards the block
// it learned in step s-1 (starting with its own) to its right neighbour
// and receives block (rank-s-1) mod n from its left neighbour, so after
// n-1 steps every rank holds all n blocks. The ring moves n(n-1) messages
// like the naive all-to-all but its critical path is n-1 single-hop rounds,
// every link carries exactly one block per step (bandwidth-optimal), and no
// rank is a bottleneck — unlike the old gather-to-root-then-broadcast,
// whose root serialized n-1 receives and re-sent the whole vector.
func Allgather[T any](c *Comm, v T) ([]T, error) {
	n := c.Size()
	out := make([]T, n)
	out[c.rank] = v
	left, right := ringNeighbors(c.rank, n)
	for step := 0; step < n-1; step++ {
		sendIdx := (c.rank - step + n*n) % n
		recvIdx := (c.rank - step - 1 + n*n) % n
		if _, err := c.exchange(right, tagAllgat, out[sendIdx], left, tagAllgat, &out[recvIdx]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Alltoall performs the full exchange: rank i's items[j] is delivered to
// rank j, which receives it at position i of its result: MPI_Alltoall.
// items must have exactly Size() elements on every rank.
func Alltoall[T any](c *Comm, items []T) ([]T, error) {
	if len(items) != c.Size() {
		return nil, fmt.Errorf("mpi: Alltoall needs exactly %d items, got %d", c.Size(), len(items))
	}
	out := make([]T, c.Size())
	out[c.rank] = items[c.rank]
	// Send everything first (sends are buffered), then receive; matching
	// by source slots each arrival into place without deadlock.
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		if err := c.sendReserved(r, tagAll, items[r]); err != nil {
			return nil, err
		}
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		if _, err := c.recvReserved(r, tagAll, &out[r]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan computes the inclusive prefix reduction: rank i receives
// v0 ⊕ v1 ⊕ ... ⊕ vi. MPI_Scan, implemented as a linear chain.
func Scan[T any](c *Comm, v T, combine func(a, b T) T) (T, error) {
	acc := v
	if c.rank > 0 {
		var prefix T
		if _, err := c.recvReserved(c.rank-1, tagScan, &prefix); err != nil {
			var zero T
			return zero, err
		}
		acc = combine(prefix, v)
	}
	if c.rank < c.Size()-1 {
		if err := c.sendReserved(c.rank+1, tagScan, acc); err != nil {
			var zero T
			return zero, err
		}
	}
	return acc, nil
}

// Exscan computes the exclusive prefix reduction: rank 0 receives the zero
// value (and ok=false, mirroring MPI's undefined receive buffer on rank 0),
// rank i>0 receives v0 ⊕ ... ⊕ v(i-1): MPI_Exscan.
func Exscan[T any](c *Comm, v T, combine func(a, b T) T) (T, bool, error) {
	var zero T
	// Chain: receive the running prefix from the left, forward prefix ⊕ v
	// to the right.
	var prefix T
	have := false
	if c.rank > 0 {
		if _, err := c.recvReserved(c.rank-1, tagExscan, &prefix); err != nil {
			return zero, false, err
		}
		have = true
	}
	if c.rank < c.Size()-1 {
		next := v
		if have {
			next = combine(prefix, v)
		}
		if err := c.sendReserved(c.rank+1, tagExscan, next); err != nil {
			return zero, false, err
		}
	}
	if !have {
		return zero, false, nil
	}
	return prefix, true, nil
}

// ReduceScatterBlock combines every rank's items elementwise and leaves
// element i at rank i: MPI_Reduce_scatter_block with one element per rank.
// items must have exactly Size() elements on every rank.
func ReduceScatterBlock[T any](c *Comm, items []T, combine func(a, b T) T) (T, error) {
	var zero T
	if len(items) != c.Size() {
		return zero, fmt.Errorf("mpi: ReduceScatterBlock needs exactly %d items, got %d", c.Size(), len(items))
	}
	// Direct algorithm: every rank sends items[j] to rank j, then combines
	// what it receives with its own element. Deterministic rank order.
	for j := 0; j < c.Size(); j++ {
		if j == c.rank {
			continue
		}
		if err := c.sendReserved(j, tagRedScat, items[j]); err != nil {
			return zero, err
		}
	}
	contributions := make([]T, c.Size())
	contributions[c.rank] = items[c.rank]
	for j := 0; j < c.Size(); j++ {
		if j == c.rank {
			continue
		}
		if _, err := c.recvReserved(j, tagRedScat, &contributions[j]); err != nil {
			return zero, err
		}
	}
	acc := contributions[0]
	for j := 1; j < c.Size(); j++ {
		acc = combine(acc, contributions[j])
	}
	return acc, nil
}

// BarrierAlgorithm selects a Barrier implementation for the ablation
// benchmarks.
type BarrierAlgorithm int

const (
	// BarrierLinear gathers arrival tokens at rank 0 and broadcasts a
	// release: 2(n-1) messages, O(n) rounds at the root.
	BarrierLinear BarrierAlgorithm = iota
	// BarrierDissemination is the classic ceil(log2 n)-round algorithm:
	// in round k each rank signals the rank 2^k ahead and waits for the
	// rank 2^k behind. This is what Barrier itself runs on a flat
	// communicator.
	BarrierDissemination
)

// BarrierWith is Barrier with an explicit algorithm choice. The explicit
// algorithms are always flat — they exist for the ablation study, so they
// must run the algorithm they name.
func (c *Comm) BarrierWith(algo BarrierAlgorithm) error {
	switch algo {
	case BarrierLinear:
		return c.linearBarrier()
	case BarrierDissemination:
		return c.disseminationBarrier()
	default:
		return fmt.Errorf("mpi: unknown barrier algorithm %d", algo)
	}
}

// disseminationBarrier runs the ceil(log2 n)-round dissemination algorithm.
// Each round's token carries its distance so a skewed world surfaces as a
// mismatch error instead of silent miscounting — including the skew a
// fault-injected duplicate or drop produces, which the failure suite uses
// to push collectives off their happy path deliberately.
func (c *Comm) disseminationBarrier() error {
	n := c.Size()
	for dist := 1; dist < n; dist *= 2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		if err := c.sendReserved(to, tagDissem, dist); err != nil {
			return err
		}
		var got int
		if _, err := c.recvReserved(from, tagDissem, &got); err != nil {
			return err
		}
		if got != dist {
			return fmt.Errorf("mpi: dissemination barrier round mismatch: got %d, want %d", got, dist)
		}
	}
	return nil
}
