package sched

import (
	"sort"
	"time"
)

// node is the scheduler's view of one modeled cluster node. All fields are
// guarded by the scheduler mutex.
type node struct {
	id    int
	cores int // capacity in rank slots: CoresPerNode × Oversubscribe
	used  int // rank slots committed to running gangs

	healthy  bool // false once dead: no placements, gangs evicted
	draining bool // true: no NEW placements, running gangs finish

	// beating mirrors the simulated node agent. Silencing it (the chaos
	// knob) stamps silentAt and arms grace, which declares the node dead
	// HeartbeatGrace later unless a revive or a kill stops it first — the
	// detection path a real cluster walks.
	beating  bool
	silentAt time.Time // when the node stopped beating
	grace    timer
}

// NodeStatus is the externally visible snapshot of one node.
type NodeStatus struct {
	ID            int       `json:"id"`
	Hostname      string    `json:"hostname"`
	Capacity      int       `json:"capacity"`
	Used          int       `json:"used"`
	Healthy       bool      `json:"healthy"`
	Draining      bool      `json:"draining"`
	Beating       bool      `json:"beating"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
}

// free reports the node's open rank slots; zero unless the node accepts
// new placements.
func (n *node) free() int {
	if !n.healthy || n.draining {
		return 0
	}
	if f := n.cores - n.used; f > 0 {
		return f
	}
	return 0
}

// capacityLocked sums open and total placeable slots across the cluster:
// free is what a gang could take right now, total what it could take once
// the healthy nodes drain empty. The gap between a job's width and total
// is what triggers elastic shrink; the gap between width and free is just
// a queue.
func (s *Scheduler) capacityLocked() (free, total int) {
	for _, n := range s.nodes {
		free += n.free()
		if n.healthy && !n.draining {
			total += n.cores
		}
	}
	return free, total
}

// placeLocked assigns width ranks to nodes, most-free-first, consecutive
// ranks packed onto the same node so the placement matches the runtime's
// two-level collective topology. Returns the per-rank node ids, or ok
// false when the open slots don't cover the gang — gang scheduling admits
// all ranks together or none.
func (s *Scheduler) placeLocked(width int) ([]int, bool) {
	order := make([]*node, 0, len(s.nodes))
	total := 0
	for _, n := range s.nodes {
		if f := n.free(); f > 0 {
			order = append(order, n)
			total += f
		}
	}
	if total < width {
		return nil, false
	}
	sort.SliceStable(order, func(i, j int) bool {
		fi, fj := order[i].free(), order[j].free()
		if fi != fj {
			return fi > fj
		}
		return order[i].id < order[j].id
	})
	placement := make([]int, 0, width)
	for _, n := range order {
		take := n.free()
		if take > width-len(placement) {
			take = width - len(placement)
		}
		for i := 0; i < take; i++ {
			placement = append(placement, n.id)
		}
		n.used += take
		if len(placement) == width {
			return placement, true
		}
	}
	// Unreachable: total >= width. Roll back defensively.
	s.releaseLocked(placement)
	return nil, false
}

// releaseLocked returns a placement's slots to their nodes.
func (s *Scheduler) releaseLocked(placement []int) {
	for _, id := range placement {
		if id >= 0 && id < len(s.nodes) && s.nodes[id].used > 0 {
			s.nodes[id].used--
		}
	}
}

// nodesOf reports the distinct node ids of a placement.
func nodesOf(placement []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, id := range placement {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// onNode reports whether any rank of the placement sits on node id.
func onNode(placement []int, id int) bool {
	for _, n := range placement {
		if n == id {
			return true
		}
	}
	return false
}
