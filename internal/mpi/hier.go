package mpi

// Topology-aware two-level collectives. On a real cluster the latency and
// bandwidth gap between intra-node transport (shared memory, or goroutine
// mailboxes here) and the inter-node network is large enough that a flat
// collective — which treats all ranks as equidistant — leaves the dominant
// optimization on the table: most of its hops cross the node boundary for
// no reason. The standard fix, and what this file implements, is the
// two-level schedule every production MPI ships:
//
//	1. each node elects a leader (its lowest rank on the communicator);
//	2. the intra-node phase runs over the cheap local transport, within a
//	   per-node sub-communicator;
//	3. only the leaders talk across nodes, within a leader
//	   sub-communicator — so exactly one rank per node contends for the
//	   inter-node link, instead of all of them.
//
// The sub-communicators are built without any communication (Comm.derived):
// the node assignment is a deterministic function of the communicator's
// group and the world topology (WithTopology, or processor names), so every
// member computes identical groups locally. The phases themselves reuse the
// flat algorithms from collective.go / vector.go unchanged — the
// sub-communicators are marked flatOnly, which is also what terminates the
// recursion. Because everything still rides on sendReserved/recvReserved
// and waitFrame, the failure model (abort, WithDeadline, WithFaults,
// recovery) applies to the hierarchical schedules with no extra machinery.
//
// Selection is automatic: Bcast, Reduce, Allreduce, Barrier, and
// AllreduceSlice consult Comm.hier and fall back to the flat
// algorithms whenever it reports a degenerate topology (single node,
// unknown placement, Size()==1) or hierarchy is off (WithHierarchy).

// HierMode selects whether collectives may use the two-level hierarchical
// schedules; see WithHierarchy.
type HierMode int

const (
	// HierAuto (the default) uses the hierarchy exactly when it pays: the
	// communicator spans at least two nodes and at least one node
	// co-locates two ranks.
	HierAuto HierMode = iota
	// HierOn uses the hierarchy whenever the communicator spans more than
	// one node, even if every node holds a single rank.
	HierOn
	// HierOff pins every collective to the flat algorithms.
	HierOff
)

// tagHier is the reserved tag for the hierarchy's root↔leader relay hops,
// which travel on the parent communicator (the phases themselves use the
// ordinary collective tags on the node/leader sub-communicators).
const tagHier = -19

// hierState is a communicator's cached two-level topology view.
type hierState struct {
	nodeOf     []int   // dense node id per communicator rank
	leaders    []int   // communicator rank of each node's leader, indexed by node id
	members    [][]int // communicator ranks on each node, ascending; index i is nodeComm rank i
	myNode     int     // this rank's node id
	nodeComm   *Comm   // this rank's intra-node communicator; leader is rank 0
	leaderComm *Comm   // the leader communicator; nil at non-leaders
}

// hier returns the communicator's two-level topology view, or nil when the
// flat algorithms should run: hierarchy disabled, a runtime-internal
// sub-communicator, a single rank, or a topology with nothing to layer
// (all ranks on one node; or, under HierAuto, no co-located ranks at all).
// The view is built once per communicator and cached.
func (c *Comm) hier() *hierState {
	if c.flatOnly || len(c.ranks) < 2 || c.world.hierMode == HierOff {
		return nil
	}
	c.hierOnce.Do(func() { c.hierSt = c.buildHier() })
	return c.hierSt
}

// buildHier derives the node assignment, elects leaders, and constructs the
// node and leader sub-communicators. Node ids are densified in first-
// appearance order of the communicator's ranks, so every member derives the
// identical numbering no matter how sparse the world-level ids are.
func (c *Comm) buildHier() *hierState {
	w := c.world
	nodeOf := make([]int, len(c.ranks))
	var nodes int
	if len(w.nodeOf) > 0 {
		idx := make(map[int]int)
		for i, wr := range c.ranks {
			n := 0
			if wr < len(w.nodeOf) {
				n = w.nodeOf[wr]
			}
			d, ok := idx[n]
			if !ok {
				d = len(idx)
				idx[n] = d
			}
			nodeOf[i] = d
		}
		nodes = len(idx)
	} else {
		idx := make(map[string]int)
		for i, wr := range c.ranks {
			name := ""
			if wr < len(w.names) {
				name = w.names[wr]
			}
			d, ok := idx[name]
			if !ok {
				d = len(idx)
				idx[name] = d
			}
			nodeOf[i] = d
		}
		nodes = len(idx)
	}
	if nodes < 2 {
		return nil
	}
	// Leaders and per-node membership. The leader is the node's lowest
	// communicator rank, which under first-appearance numbering makes the
	// leaders slice strictly ascending — so the leader of node d sits at
	// rank d of the leader communicator.
	leaders := make([]int, nodes)
	members := make([][]int, nodes)
	for i, d := range nodeOf {
		if members[d] == nil {
			leaders[d] = i
		}
		members[d] = append(members[d], i)
	}
	if w.hierMode == HierAuto {
		coloc := false
		for _, m := range members {
			if len(m) > 1 {
				coloc = true
				break
			}
		}
		if !coloc {
			return nil
		}
	}
	my := nodeOf[c.rank]
	h := &hierState{nodeOf: nodeOf, leaders: leaders, members: members, myNode: my}
	node, leader := int64(subNode), int64(subLeaders)
	if c.ctx == c.owner.ctx+subProgress { // the progress shadow's hierarchy
		node, leader = subShadowNode, subShadowLeaders
	}
	h.nodeComm = c.derived(node, members[my], true)
	if leaders[my] == c.rank {
		h.leaderComm = c.derived(leader, leaders, true)
	}
	return h
}

// Different nodes' nodeComms share one context id of their owner's block,
// which is safe because their memberships are disjoint: mailbox matching is
// by (ctx, src, tag) with src communicator-local, and no frame ever travels
// between the groups. A leader belongs to both its nodeComm and the
// leaderComm, which is why those two are distinct kinds.

// hierBarrier: linear gather-and-release within each node around a
// dissemination barrier among the leaders. The intra-node phases are the
// O(n)-round linear shape on purpose — with a handful of ranks per node the
// fan-in is tiny, and it keeps the leader the single point that enters the
// inter-node phase.
func (c *Comm) hierBarrier(h *hierState) error {
	const token = 0
	nc := h.nodeComm
	if nc.rank != 0 {
		if err := nc.sendReserved(0, tagHier, token); err != nil {
			return err
		}
	} else {
		for src := 1; src < nc.Size(); src++ {
			if _, err := nc.recvReserved(src, tagHier, nil); err != nil {
				return err
			}
		}
	}
	if h.leaderComm != nil {
		if err := h.leaderComm.Barrier(); err != nil {
			return err
		}
	}
	if nc.rank == 0 {
		for dst := 1; dst < nc.Size(); dst++ {
			if err := nc.sendReserved(dst, tagHier, token); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := nc.recvReserved(0, tagHier, nil)
	return err
}

// hierBcast: relay the value from root to its node's leader if root is not
// one, broadcast among the leaders, then within each node.
func hierBcast[T any](c *Comm, h *hierState, v T, root int) (T, error) {
	var zero T
	rootLeader := h.leaders[h.nodeOf[root]]
	if root != rootLeader {
		if c.rank == root {
			if err := c.sendReserved(rootLeader, tagHier, v); err != nil {
				return zero, err
			}
		} else if c.rank == rootLeader {
			if _, err := c.recvReserved(root, tagHier, &v); err != nil {
				return zero, err
			}
		}
	}
	if h.leaderComm != nil {
		lv, err := Bcast(h.leaderComm, v, h.nodeOf[root])
		if err != nil {
			return zero, err
		}
		v = lv
	}
	return Bcast(h.nodeComm, v, 0)
}

// hierReduce: tree-reduce within each node to its leader, tree-reduce among
// the leaders toward root's leader, then one relay hop leader→root if root
// is not a leader. As with the flat tree, the fold order differs from the
// linear rank order, so combine must be associative.
func hierReduce[T any](c *Comm, h *hierState, v T, combine func(a, b T) T, root int) (T, error) {
	var zero T
	part, err := Reduce(h.nodeComm, v, combine, 0)
	if err != nil {
		return zero, err
	}
	rootNode := h.nodeOf[root]
	rootLeader := h.leaders[rootNode]
	if h.leaderComm != nil {
		part, err = Reduce(h.leaderComm, part, combine, rootNode)
		if err != nil {
			return zero, err
		}
	}
	if root == rootLeader {
		if c.rank == root {
			return part, nil
		}
		return zero, nil
	}
	switch c.rank {
	case rootLeader:
		if err := c.sendReserved(root, tagHier, part); err != nil {
			return zero, err
		}
		return zero, nil
	case root:
		var out T
		if _, err := c.recvReserved(rootLeader, tagHier, &out); err != nil {
			return zero, err
		}
		return out, nil
	default:
		return zero, nil
	}
}

// hierAllreduce: reduce within each node, allreduce among the leaders,
// broadcast back within each node — one inter-node exchange total.
func hierAllreduce[T any](c *Comm, h *hierState, v T, combine func(a, b T) T) (T, error) {
	var zero T
	part, err := Reduce(h.nodeComm, v, combine, 0)
	if err != nil {
		return zero, err
	}
	if h.leaderComm != nil {
		part, err = Allreduce(h.leaderComm, part, combine)
		if err != nil {
			return zero, err
		}
	}
	return Bcast(h.nodeComm, part, 0)
}

// hierAllreduceSlice is the vector counterpart: a Rabenseifner reduce to
// the node leader, a Rabenseifner allreduce among the leaders, and a
// pipelined broadcast back down. Each rank still moves O(len(v)) bytes, but
// the inter-node link carries one payload per node instead of one per rank.
func hierAllreduceSlice[T any](c *Comm, h *hierState, v []T, fo vecFold[T]) ([]T, error) {
	part, err := reduceSlice(h.nodeComm, v, fo)
	if err != nil {
		return nil, err
	}
	if h.leaderComm != nil {
		part, err = allreduceSlice(h.leaderComm, part, fo)
		if err != nil {
			return nil, err
		}
	}
	return bcastSlice(h.nodeComm, part, 0)
}
