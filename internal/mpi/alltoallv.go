package mpi

import "fmt"

// AlltoallvSlice and friends: the irregular personalized exchange,
// MPI_Alltoallv. Every rank holds one send buffer partitioned by per-rank
// counts (block for rank 0 first, then rank 1, and so on) and receives one
// buffer partitioned the same way by its receive counts. Unlike a loop of
// per-element Send/Recv — the shape sparse codes naturally fall into — the
// exchange coalesces each pair's traffic into one frame, so a frontier of
// ten thousand graph edges to a peer costs one message, one header, and (on
// the shm and TCP wire paths) one copy into place.
//
// Schedule: the pairwise exchange. At step s, rank r sends its block for
// (r+s) mod n and receives the block from (r-s+n) mod n, so every step is a
// perfect matching — each rank sends at most one message and receives at
// most one, and no single rank is ever the hot spot the naive "everyone
// sends to 0 first" rank-ordered loop creates. Each step is one exchange
// (Comm.exchange): the receive is posted first, naming the block's place in
// the receive buffer, and the outgoing block is sent lent, so neither side
// waits for the other to start and no block is buffered on the way.
//
// Zero-count pairs move no frame at all: the sender skips the Send and the
// receiver skips the Recv, symmetrically — the sparse-friendly property
// that makes the primitive cheap on irregular workloads where most pairs
// exchange nothing. As in MPI, the counts are a contract: if rank a's
// sendCounts[b] is nonzero while b's recvCounts[a] is zero, the exchange
// hangs (or trips the world deadline) exactly as mismatched Send/Recv would.
//
// On a multi-node topology (see WithTopology/WithHierarchy) the exchange
// runs the two-level schedule instead: members forward their buffers to the
// node leader, leaders exchange one aggregated block per node pair over the
// inter-node link, and receiving leaders re-sort the blocks into each
// member's buffer. The wire crossing the node boundary carries one message
// per node pair instead of one per rank pair.
const (
	tagA2Av     = -20 // pairwise-exchange data blocks (flat and leader phases)
	tagA2AvGat  = -21 // member -> leader buffer forwarding
	tagA2AvScat = -22 // leader -> member reassembled buffers
)

// AlltoallCounts exchanges the count matrix: every rank passes its
// per-destination send counts and learns its per-origin receive counts —
// the usual prologue when only the senders know the sizes (a BFS frontier,
// a PageRank contribution list). It is AlltoallvInto's pairwise schedule with
// one count per peer, flat on every topology: each rank receives n ints, each
// landing in the returned slice, its only object.
func AlltoallCounts(c *Comm, sendCounts []int) ([]int, error) {
	n, r := c.Size(), c.rank
	if len(sendCounts) != n {
		return nil, fmt.Errorf("mpi: AlltoallCounts: %d counts for a %d-rank communicator", len(sendCounts), n)
	}
	recvCounts := make([]int, n)
	recvCounts[r] = sendCounts[r]
	for step := 1; step < n; step++ {
		dst, src := (r+step)%n, (r-step+n)%n
		if err := exchangeSeg(c, dst, tagA2Av, sendCounts[dst:dst+1], src, tagA2Av, recvCounts[src:src+1], "mpi: AlltoallCounts: rank %d sent %d counts, want %d"); err != nil {
			return nil, err
		}
	}
	return recvCounts, nil
}

// AlltoallvSlice performs the irregular personalized exchange and returns a
// freshly allocated receive buffer: send[displ(r) : displ(r)+sendCounts[r]]
// goes to rank r, and the result holds rank o's block at the offset implied
// by recvCounts[0..o). Displacements are the prefix sums of the counts —
// the packed MPI_Alltoallv layout. PageRank runs the exchange every iteration
// with identical counts: AlltoallvInto with a reused buffer allocates nothing.
func AlltoallvSlice[T any](c *Comm, send []T, sendCounts, recvCounts []int) ([]T, error) {
	total := 0
	for _, ct := range recvCounts {
		total += max(ct, 0) // AlltoallvInto refuses a negative count
	}
	recv := make([]T, total)
	if err := AlltoallvInto(c, send, sendCounts, recv, recvCounts); err != nil {
		return nil, err
	}
	return recv, nil
}

// AlltoallvInto is AlltoallvSlice into a caller-owned receive buffer, which
// must hold exactly sum(recvCounts) elements. Each block is copied once, into
// its final position: on the local transport by whichever of the pair comes
// second, straight out of the other's send buffer; on TCP off the socket (a
// streamed frame) or out of the frame's buffer; on shm out of the sender's
// staging block. A block whose sender is a whole step ahead of its receiver
// (np > 2) is the exception: it waits as a private copy.
func AlltoallvInto[T any](c *Comm, send []T, sendCounts []int, recv []T, recvCounts []int) error {
	n := c.Size()
	if len(sendCounts) != n || len(recvCounts) != n {
		return fmt.Errorf("mpi: Alltoallv: %d send / %d recv counts for a %d-rank communicator",
			len(sendCounts), len(recvCounts), n)
	}
	r := c.rank
	so, ro, stot, rtot := 0, 0, 0, 0 // where rank r's own blocks sit, and the sums
	for i := range n {
		if sendCounts[i] < 0 || recvCounts[i] < 0 {
			return fmt.Errorf("mpi: Alltoallv: negative count: sendCounts[%d] = %d, recvCounts[%d] = %d", i, sendCounts[i], i, recvCounts[i])
		}
		if i == r {
			so, ro = stot, rtot
		}
		stot, rtot = stot+sendCounts[i], rtot+recvCounts[i]
	}
	if stot != len(send) {
		return fmt.Errorf("mpi: Alltoallv: send counts sum to %d, buffer has %d elements", stot, len(send))
	}
	if rtot != len(recv) {
		return fmt.Errorf("mpi: Alltoallv: recv counts sum to %d, buffer has %d elements", rtot, len(recv))
	}
	copy(recv[ro:ro+recvCounts[r]], send[so:so+sendCounts[r]])
	if n == 1 {
		return nil
	}
	if h := c.hier(); h != nil {
		return hierAlltoallv(c, h, send, sendCounts, recv, recvCounts)
	}
	// Step s sends to r+s and receives from r−s (mod n): the send offset walks
	// up the buffer and wraps to 0, the receive offset walks down and wraps to
	// the top.
	for step := 1; step < n; step++ {
		dst, src := (r+step)%n, (r-step+n)%n
		if so += sendCounts[(dst+n-1)%n]; dst == 0 {
			so = 0
		}
		if ro -= recvCounts[src]; src == n-1 {
			ro = rtot - recvCounts[src]
		}
		// An empty block moves no frame, on either side of it.
		const format = "mpi: Alltoallv: rank %d sent %d elements, recvCounts say %d"
		var err error
		switch out, in := send[so:so+sendCounts[dst]], recv[ro:ro+recvCounts[src]]; {
		case len(out) > 0 && len(in) > 0:
			err = exchangeSeg(c, dst, tagA2Av, out, src, tagA2Av, in, format)
		case len(out) > 0:
			err = sendSeg(c, dst, tagA2Av, out)
		case len(in) > 0:
			err = recvSegCopy(c, src, tagA2Av, in, format)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// displs turns a count vector into its prefix-sum displacement vector and
// total.
func displs(counts []int) ([]int, int) {
	d := make([]int, len(counts))
	total := 0
	for i, ct := range counts {
		d[i] = total
		total += ct
	}
	return d, total
}

// hierAlltoallv is the two-level schedule. Phase 1: each member forwards
// its whole send buffer and both count vectors to its node leader. Phase 2:
// each leader, for each destination node, concatenates its members' blocks
// in canonical (origin rank ascending, then destination rank ascending)
// order and exchanges these aggregates pairwise with the other leaders —
// one message per node pair across the inter-node link. Phase 3: the
// receiving leader re-sorts the aggregates into each member's contiguous
// receive buffer (origin rank ascending, the flat layout) and sends it
// down. Both sides derive every block size from the gathered count
// matrices, so no extra size exchange is needed.
func hierAlltoallv[T any](c *Comm, h *hierState, send []T, sendCounts []int, recv []T, recvCounts []int) error {
	mine := h.members[h.myNode]
	nc := h.nodeComm

	// Phase 1: counts up to the leader (both vectors), then the data.
	scRows, err := Gather(nc, sendCounts, 0)
	if err != nil {
		return err
	}
	rcRows, err := Gather(nc, recvCounts, 0)
	if err != nil {
		return err
	}
	if nc.rank != 0 {
		if len(send) > 0 {
			if err := nc.sendReserved(0, tagA2AvGat, send); err != nil {
				return err
			}
		}
		// The leader sends back this member's fully assembled receive
		// buffer; nothing else to do here.
		if len(recv) > 0 {
			return recvSegCopy(nc, 0, tagA2AvScat, recv, "")
		}
		return nil
	}

	// Leader: collect the members' send buffers (own buffer included, index
	// 0). bufs[i] belongs to nodeComm rank i == comm rank mine[i].
	n := c.Size()
	bufs := make([][]T, len(mine))
	bufs[0] = send
	for i := 1; i < len(mine); i++ {
		total := 0
		for _, ct := range scRows[i] {
			total += ct
		}
		bufs[i] = make([]T, total)
		if total > 0 {
			if err := recvSegCopy(nc, i, tagA2AvGat, bufs[i], ""); err != nil {
				return err
			}
		}
	}

	// Aggregate block sizes: outSize[D] = what this node sends to node D,
	// inSize[S] = what it receives from node S — both derivable locally
	// from the gathered count matrices.
	nodes := len(h.leaders)
	outSize := make([]int, nodes)
	inSize := make([]int, nodes)
	for i := range mine {
		for r := 0; r < n; r++ {
			outSize[h.nodeOf[r]] += scRows[i][r]
			inSize[h.nodeOf[r]] += rcRows[i][r]
		}
	}

	// Pack one aggregate per destination node, in node order: for each
	// origin member (ascending), its blocks for that node's members
	// (ascending).
	_, aggTotal := displs(outSize)
	aggOut := make([]T, 0, aggTotal)
	for _, dsts := range h.members {
		for i := range mine {
			disp, _ := displs(scRows[i])
			for _, d := range dsts {
				aggOut = append(aggOut, bufs[i][disp[d]:disp[d]+scRows[i][d]]...)
			}
		}
	}

	// Leaders exchange the aggregates with the flat pairwise schedule on
	// the leader communicator, whose rank d is node d's leader: one message
	// per node pair, and the self aggregate never leaves the node.
	_, aggTotal = displs(inSize)
	aggIn := make([]T, aggTotal) // received aggregates, in origin node order
	if err := AlltoallvInto(h.leaderComm, aggOut, outSize, aggIn, inSize); err != nil {
		return err
	}

	// Phase 3: re-sort into each member's receive buffer. Member i's final
	// buffer is ordered by origin rank ascending; block (origin o -> member
	// i) has size rcRows[i][o] and sits at the prefix-sum offset of
	// rcRows[i][0..o). Within each aggregate the blocks come in the same
	// canonical (origin asc, dest asc) order they were packed in.
	outBufs := make([][]T, len(mine))
	posIn := make([][]int, len(mine)) // per member: offset of each origin's block
	for i := range mine {
		var total int
		posIn[i], total = displs(rcRows[i])
		if i == 0 {
			outBufs[i] = recv
		} else {
			outBufs[i] = make([]T, total)
		}
	}
	pos := 0
	for _, origins := range h.members {
		for _, o := range origins {
			for i := range mine {
				ct := rcRows[i][o]
				copy(outBufs[i][posIn[i][o]:posIn[i][o]+ct], aggIn[pos:pos+ct])
				pos += ct
			}
		}
	}
	for i := 1; i < len(mine); i++ {
		if len(outBufs[i]) > 0 {
			if err := nc.sendReserved(i, tagA2AvScat, outBufs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
