package cluster

import (
	"fmt"
	"time"

	"repro/internal/mpi"
)

// Launch runs main as an np-rank SPMD program on this platform: the
// mpirun-equivalent the notebook's "!mpirun -np 4" cells and the benchmark
// harness call into. Three platform effects are applied:
//
//   - Placement: each rank is placed on a node and reports that node's
//     hostname from ProcessorName.
//   - Core budget: a counting semaphore sized to the platform's total core
//     count gates Comm.Compute, so on the unicore Colab VM four ranks
//     interleave their computation rather than overlapping it.
//   - Network: messages between ranks on different nodes pay the platform's
//     inter-node latency, and — when the platform models finite bandwidth —
//     hold their node-pair link for the transmission time (LinkModel), so
//     concurrent cross-node transfers contend.
//   - Topology: the placement is published to the runtime (WithTopology),
//     which is what lets the collectives select their two-level
//     hierarchical schedules on multi-node platforms.
//
// Oversubscription (np greater than the core count) is allowed, exactly as
// "mpirun --allow-run-as-root -np 4" is on the unicore Colab VM. Extra
// runtime options are appended after the platform's own, so callers can
// override defaults (mpi.WithHierarchy(mpi.HierOff) forces flat collectives
// for an apples-to-apples benchmark).
func (p Platform) Launch(np int, main func(c *mpi.Comm) error, extra ...mpi.Option) error {
	if np < 1 {
		return fmt.Errorf("cluster: launch needs at least 1 process, got %d", np)
	}
	nodes := make([]int, np)
	for r := range nodes {
		nodes[r] = p.NodeOf(r, np)
	}
	opts := append(p.Options(nodes, NewCoreGate(p.TotalCores()).Run), extra...)
	return mpi.Run(np, main, opts...)
}

// Options are the runtime options that put ranks on this platform, rank r
// on node placement[r]: its processor name, the topology, the compute gate
// (the platform's cores), and the inter-node latency and link model between
// the placed ranks. Launch builds them for a blockwise placement; the gang
// scheduler, for the nodes it allocated a job and its shared gate.
func (p Platform) Options(placement []int, gate func(fn func())) []mpi.Option {
	names := make([]string, len(placement))
	for r, node := range placement {
		names[r] = p.Hostname(node)
	}
	opts := []mpi.Option{
		mpi.WithProcessorNames(names),
		mpi.WithTopology(placement),
		mpi.WithComputeGate(gate),
	}
	if p.InterNodeLatency > 0 && p.Nodes > 1 {
		lat := p.InterNodeLatency
		opts = append(opts, mpi.WithLatency(func(src, dst int) time.Duration {
			if placement[src] != placement[dst] {
				return lat
			}
			return 0
		}))
	}
	if p.InterNodeBandwidth > 0 && p.Nodes > 1 {
		opts = append(opts, mpi.WithLinkCost(NewLinkModel(placement, p.Nodes, p.InterNodeBandwidth).Cost))
	}
	return opts
}

// CoreGate is a counting semaphore standing in for a platform's cores: at
// most Cores computations proceed at once, the rest wait their turn. This is
// what makes the modeled Colab VM correct-but-not-faster with np > 1.
type CoreGate struct {
	slots chan struct{}
}

// NewCoreGate returns a gate admitting cores simultaneous computations.
func NewCoreGate(cores int) *CoreGate {
	if cores < 1 {
		cores = 1
	}
	g := &CoreGate{slots: make(chan struct{}, cores)}
	for i := 0; i < cores; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// Run executes fn while holding a core slot.
func (g *CoreGate) Run(fn func()) {
	<-g.slots
	defer func() { g.slots <- struct{}{} }()
	fn()
}

// Cores reports the gate's capacity.
func (g *CoreGate) Cores() int { return cap(g.slots) }
