package mpi

// Communication-schedule helpers shared by every collective family — the
// scalar algorithms in collective.go, the vector algorithms in vector.go,
// and the hierarchical variants in hier.go all build their schedules from
// these few shapes (binomial-ish tree, ring, dissemination rounds, block
// segmentation) rather than keeping per-file copies.

// treeParent and treeKids define the binary broadcast/reduce tree in the
// rank space rotated so that root is virtual rank 0: the children of vrank
// are the virtual ranks [lo, hi), none when lo == hi.
func treeParent(vrank int) int { return (vrank - 1) / 2 }

func treeKids(vrank, size int) (lo, hi int) {
	lo = min(2*vrank+1, size)
	return lo, min(2*vrank+3, size)
}

// toVirtual maps a real rank to its position in a tree rooted at root.
func toVirtual(rank, root, size int) int { return (rank - root + size) % size }

// toReal inverts toVirtual.
func toReal(vrank, root, size int) int { return (vrank + root) % size }

// ringNeighbors reports the two neighbours of rank on the n-rank ring the
// allgather/reduce-scatter algorithms circulate over: right is where a rank
// sends, left where it receives from.
func ringNeighbors(rank, n int) (left, right int) {
	return (rank - 1 + n) % n, (rank + 1) % n
}

// disseminationRounds reports how many communication rounds the
// dissemination barrier performs for an n-rank world: ceil(log2 n). The
// round-count scaling test pins Barrier's O(log n) critical path to this
// function, and disseminationBarrier sends exactly one message per rank per
// round.
func disseminationRounds(n int) int {
	rounds := 0
	for dist := 1; dist < n; dist *= 2 {
		rounds++
	}
	return rounds
}

// segRange is the block decomposition the ring algorithms use: segment i of
// k over n elements, with the remainder spread one element each over the
// first n%k segments (the same rule as shm.StaticRange, which the exemplars
// use for their blocks; mpi does not import shm). Segments are contiguous,
// cover [0, n), and may be empty when n < k.
func segRange(n, i, k int) (lo, hi int) {
	base, rem := n/k, n%k
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// isPow2 reports whether a world size (>= 1) is a power of two — the sizes
// where recursive halving/doubling pairs up cleanly without a fold step.
func isPow2(n int) bool { return n&(n-1) == 0 }
