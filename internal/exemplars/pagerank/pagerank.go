package pagerank

import (
	"fmt"

	"repro/internal/mpi"
)

// The distributed variants. Vertices are block-partitioned: rank r owns
// [vlo(r), vhi(r)) and holds the PageRank values (or BFS levels) of exactly
// its own vertices. Every rank regenerates the full graph from the shared
// parameters and scans only its own vertices' out-edges, so the only
// communication is the irregular part: contributions (or frontier pushes)
// whose destination lives on another rank.
//
// PageRankMPI is the two-sided formulation — per-iteration coalesced
// exchange with AlltoallvInto over a setup-time destination index — and
// PageRankRMA is the one-sided formulation — each rank Accumulates dense
// per-owner contribution blocks into the owners' windows between two fences.
// Both match PageRankSeq to floating-point reassociation (the property the
// tests pin); BFSMPI matches BFSSeq bit-for-bit.

// vrange is the block partition: rank r of np owns [n*r/np, n*(r+1)/np).
func vrange(n, r, np int) (int, int) { return n * r / np, n * (r + 1) / np }

// ownerOf inverts vrange. It divides, so it stays off the per-edge paths:
// BFSMPI calls it once per frontier push, the tests to cross-check the plan.
func ownerOf(v, n, np int) int {
	o := v * np / n
	for n*o/np > v {
		o--
	}
	for n*(o+1)/np <= v {
		o++
	}
	return o
}

// uniform is the power iteration's start vector restricted to one block.
func uniform(n, block int) []float64 {
	pr := make([]float64, block)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	return pr
}

// scatterAdd is the kernel every variant shares, and with idx = g.Dst it is
// the oracle's loop: each vertex of the block spreads pr/outdeg over
// acc[idx[e]] for its out-edges e — one index load and one add per edge, no
// branch — and the dangling vertices' mass is returned. off is the block's
// window of g.Off; idx holds one accumulator index per edge of the block.
func scatterAdd(pr []float64, off []int, idx []int32, acc []float64) (dangling float64) {
	for i, p := range pr {
		d := off[i+1] - off[i]
		if d == 0 {
			dangling += p
			continue
		}
		w := p / float64(d)
		for _, s := range idx[:d] {
			acc[s] += w
		}
		idx = idx[d:]
	}
	return dangling
}

// exchange is one rank's working set for the two-sided iteration: the
// setup-time index of the contribution exchange (which foreign vertices this
// rank pushes to, deduplicated and packed per owner in ascending vertex
// order, and which of its own vertices the peers push to) plus the buffers
// every step reuses.
type exchange struct {
	n          int
	off        []int   // g.Off over the owned vertices
	edgeSlot   []int32 // per owned edge: index into acc
	sendCounts []int   // packed contribution slots per owner
	recvCounts []int
	recvIdx    []int32 // per incoming slot: the owned vertex it folds into

	pr       []float64 // owned block of the rank vector
	acc      []float64 // owned vertices' contributions, then the packed send block
	recvVals []float64
	dang     []float64 // the Allreduce operand: this rank's dangling mass
	kernel   func()    // bound once, so Compute allocates nothing per step
}

// newExchange builds the plan in time linear in the owned edges plus g.N —
// mark the reached vertices in a dense table, number the foreign ones by
// walking the other owners' ranges, translate the edges by table lookup — and
// exchanges the destination indices once, so the per-iteration exchange
// moves only float64 values with fixed counts. pr is the owned block the
// iteration starts from.
func newExchange(c *mpi.Comm, g *Graph, pr []float64) (*exchange, error) {
	np := c.Size()
	lo, hi := vrange(g.N, c.Rank(), np)
	dst := g.Dst[g.Off[lo]:g.Off[hi]]
	x := &exchange{n: g.N, off: g.Off[lo : hi+1], edgeSlot: make([]int32, len(dst)),
		sendCounts: make([]int, np), pr: pr, dang: make([]float64, 1)}

	slot := make([]int32, g.N) // 1 = reached by an owned edge; then the vertex's index in acc
	for _, v := range dst {
		slot[v] = 1
	}
	clear(slot[lo:hi])
	sendLen := 0
	for _, m := range slot {
		sendLen += int(m)
	}
	sendIdx := make([]int32, 0, sendLen) // destination vertex per packed slot
	for o := range x.sendCounts {
		olo, ohi := vrange(g.N, o, np)
		for v := olo; v < ohi; v++ {
			if slot[v] != 0 {
				slot[v] = int32(hi - lo + len(sendIdx))
				sendIdx = append(sendIdx, int32(v))
				x.sendCounts[o]++
			}
		}
	}
	for v := lo; v < hi; v++ {
		slot[v] = int32(v - lo)
	}
	for e, v := range dst {
		x.edgeSlot[e] = slot[v]
	}

	var err error
	if x.recvCounts, err = mpi.AlltoallCounts(c, x.sendCounts); err != nil {
		return nil, err
	}
	if x.recvIdx, err = mpi.AlltoallvSlice(c, sendIdx, x.sendCounts, x.recvCounts); err != nil {
		return nil, err
	}
	for i, v := range x.recvIdx {
		if int(v) < lo || int(v) >= hi {
			return nil, fmt.Errorf("pagerank: peer pushed vertex %d outside this rank's range [%d,%d)", v, lo, hi)
		}
		x.recvIdx[i] = v - int32(lo)
	}
	x.acc = make([]float64, hi-lo+sendLen)
	x.recvVals = make([]float64, len(x.recvIdx))
	x.kernel = func() { x.dang[0] = scatterAdd(x.pr, x.off, x.edgeSlot, x.acc) }
	return x, nil
}

// step is one power iteration over the owned range: scatter-add
// contributions into the local and packed-send slots, exchange, fold, and
// apply the damped update.
func (x *exchange) step(c *mpi.Comm, damping float64) error {
	clear(x.acc)
	c.Compute(x.kernel)
	total, err := mpi.AllreduceSliceOp(c, x.dang, mpi.Sum)
	if err != nil {
		return err
	}
	contrib := x.acc[:len(x.pr)]
	if err := mpi.AlltoallvInto(c, x.acc[len(x.pr):], x.sendCounts, x.recvVals, x.recvCounts); err != nil {
		return err
	}
	for k, v := range x.recvIdx {
		contrib[v] += x.recvVals[k]
	}
	base := (1-damping)/float64(x.n) + damping*total[0]/float64(x.n)
	for i := range x.pr {
		x.pr[i] = base + damping*contrib[i]
	}
	return nil
}

// PageRankMPI runs the damped power iteration across the communicator and
// returns the full PageRank vector on every rank. Per iteration it moves
// one coalesced value block per rank pair (AlltoallvInto out of and into
// buffers the exemplar allocates once; on the local transport each block is
// copied once, from the sender's buffer into the receiver's) plus one
// one-element AllreduceSliceOp for the dangling mass, whose result is the
// only object a step allocates.
func PageRankMPI(c *mpi.Comm, g *Graph, damping float64, iters int) ([]float64, error) {
	lo, hi := vrange(g.N, c.Rank(), c.Size())
	x, err := newExchange(c, g, uniform(g.N, hi-lo))
	if err != nil {
		return nil, err
	}
	for it := 0; it < iters; it++ {
		if err := x.step(c, damping); err != nil {
			return nil, err
		}
	}
	return mpi.AllgatherSlice(c, x.pr)
}

// PageRankRMA is the one-sided formulation: each rank exposes its
// contribution block as an RMA window and every rank Accumulates a dense
// per-owner block into it between two fences — the target never posts a
// receive, the fold runs target-side. Same fixed-point as PageRankMPI, up
// to floating-point reassociation (Accumulate arrival order is
// nondeterministic).
func PageRankRMA(c *mpi.Comm, g *Graph, damping float64, iters int) ([]float64, error) {
	np := c.Size()
	lo, hi := vrange(g.N, c.Rank(), np)
	w, err := mpi.WinCreate[float64](c, hi-lo)
	if err != nil {
		return nil, err
	}
	defer w.Free()

	pr := uniform(g.N, hi-lo)
	// The per-owner pre-aggregated contribution blocks are contiguous in
	// vertex order, so they are views of one vector indexed by destination:
	// the kernel is the oracle's, no owner lookup per edge.
	flat := make([]float64, g.N)
	dense := make([][]float64, np)
	for o := range dense {
		olo, ohi := vrange(g.N, o, np)
		dense[o] = flat[olo:ohi]
	}
	dang := make([]float64, 1)
	kernel := func() { dang[0] = scatterAdd(pr, g.Off[lo:hi+1], g.Dst[g.Off[lo]:g.Off[hi]], flat) }

	for it := 0; it < iters; it++ {
		clear(flat)
		c.Compute(kernel)
		// The window holds zeros here (fresh, or zeroed at the end of the
		// previous iteration before that epoch's closing fence).
		if err := w.Fence(); err != nil {
			return nil, err
		}
		for o := 0; o < np; o++ {
			if len(dense[o]) == 0 {
				continue
			}
			if err := w.Accumulate(o, 0, dense[o], mpi.Sum); err != nil {
				return nil, err
			}
		}
		total, err := mpi.AllreduceSliceOp(c, dang, mpi.Sum)
		if err != nil {
			return nil, err
		}
		if err := w.Fence(); err != nil {
			return nil, err
		}
		contrib := w.Local()
		base := (1-damping)/float64(g.N) + damping*total[0]/float64(g.N)
		for i := range pr {
			pr[i] = base + damping*contrib[i]
			contrib[i] = 0 // reset the exposure for the next epoch
		}
	}
	return mpi.AllgatherSlice(c, pr)
}

// BFSMPI is the level-synchronized distributed traversal: each level, ranks
// expand their owned frontier, push foreign discoveries to the owners with
// one AlltoallvSlice (counts re-negotiated per level — frontiers are as
// irregular as communication gets), and agree on termination with an
// Allreduce. The level assignment is order-independent, so the result is
// bit-equal to BFSSeq on every transport and rank count.
func BFSMPI(c *mpi.Comm, g *Graph, src int) ([]int32, error) {
	if src < 0 || src >= g.N {
		return nil, fmt.Errorf("pagerank: BFS source %d outside [0,%d)", src, g.N)
	}
	np, rank := c.Size(), c.Rank()
	lo, hi := vrange(g.N, rank, np)
	level := make([]int32, hi-lo)
	for i := range level {
		level[i] = -1
	}
	var frontier []int32
	if src >= lo && src < hi {
		level[src-lo] = 0
		frontier = append(frontier, int32(src))
	}
	outbox := make([][]int32, np)
	sendCounts := make([]int, np)
	var send []int32
	for depth := int32(0); ; depth++ {
		for o := range outbox {
			outbox[o] = outbox[o][:0]
		}
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Dst[g.Off[u]:g.Off[u+1]] {
				if int(v) >= lo && int(v) < hi {
					if level[v-int32(lo)] < 0 {
						level[v-int32(lo)] = depth + 1
						next = append(next, v)
					}
					continue
				}
				o := ownerOf(int(v), g.N, np)
				outbox[o] = append(outbox[o], v)
			}
		}
		send = send[:0]
		for o, b := range outbox {
			sendCounts[o] = len(b)
			send = append(send, b...)
		}
		recvCounts, err := mpi.AlltoallCounts(c, sendCounts)
		if err != nil {
			return nil, err
		}
		pushed, err := mpi.AlltoallvSlice(c, send, sendCounts, recvCounts)
		if err != nil {
			return nil, err
		}
		for _, v := range pushed {
			if level[v-int32(lo)] < 0 {
				level[v-int32(lo)] = depth + 1
				next = append(next, v)
			}
		}
		grew, err := mpi.Allreduce(c, len(next), mpi.Combine[int](mpi.Sum))
		if err != nil {
			return nil, err
		}
		if grew == 0 {
			break
		}
		frontier = next
	}
	return mpi.AllgatherSlice(c, level)
}
