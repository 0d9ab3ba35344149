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
// WithTopology and the cluster package), the algorithms of Bcast, Reduce,
// Allreduce, and Barrier switch to the two-level hierarchical
// schedules in hier.go; the flat algorithms below remain the building
// blocks those schedules run within each level, and the fallback whenever
// the topology is degenerate or hierarchy is disabled.

// Barrier blocks until every rank of the communicator has entered it:
// MPI_Barrier. It is implemented as a dissemination barrier — ceil(log2 n)
// rounds, in each of which every rank signals a rank a power-of-two ahead
// and waits on the mirror-image rank behind — so its critical path is
// O(log n) rounds rather than the O(n) of the linear gather-and-release.
// On a multi-node communicator it runs the two-level hierarchical barrier
// instead: gather-and-release within each node around a dissemination
// barrier among the node leaders.
func (c *Comm) Barrier() error {
	if h := c.hier(); h != nil {
		return c.hierBarrier(h)
	}
	return c.disseminationBarrier()
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
	for kid, end := treeKids(vrank, size); kid < end; kid++ {
		if err := c.sendReserved(toReal(kid, root, size), tagBcast, v); err != nil {
			return zero, err
		}
	}
	return v, nil
}

// Reduce combines every rank's v with the given function and delivers the
// result to root: MPI_Reduce. Ranks other than root receive the zero value.
// combine must be associative: values combine up a binary tree (the same
// shape Bcast uses), O(log n) communication rounds on the critical path, so
// the fold order is the tree's, not the strict rank order
// v0 ⊕ v1 ⊕ ... ⊕ v(n-1). On a multi-node communicator it runs the
// two-level schedule instead (hier.go).
func Reduce[T any](c *Comm, v T, combine func(a, b T) T, root int) (T, error) {
	var zero T
	if err := c.checkRank(root); err != nil {
		return zero, err
	}
	if h := c.hier(); h != nil {
		return hierReduce(c, h, v, combine, root)
	}
	size := c.Size()
	vrank := toVirtual(c.rank, root, size)
	acc := v
	for kid, end := treeKids(vrank, size); kid < end; kid++ {
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
		if _, err := c.recvReserved(from, tagDissem, &c.token); err != nil {
			return err
		}
		if c.token != dist {
			return fmt.Errorf("mpi: dissemination barrier round mismatch: got %d, want %d", c.token, dist)
		}
	}
	return nil
}
