// Package cluster models the execution platforms the paper's materials run
// on, so that the distributed-memory experiments can reproduce each
// platform's characteristic behaviour on a single development machine:
//
//   - Raspberry Pi: the $100 kit's 4-core single-board computer used by the
//     shared-memory module.
//   - Google Colab VM: a single-core cloud VM. Message-passing programs run
//     correctly but exhibit no parallel speedup — the paper leans on exactly
//     this property to separate "learning the concepts" from "experiencing
//     speedup".
//   - Chameleon cluster: a multi-node testbed reached through Jupyter; runs
//     show real speedup plus inter-node message latency.
//   - St. Olaf VM: a 64-core single-node server reached through VNC/SSH;
//     large shared-memory-style scaling with no network hops.
//
// A Platform can launch an SPMD program on the mpi runtime with the
// platform's core budget enforced (ranks beyond the core count make
// progress but cannot compute simultaneously) and inter-node latency
// injected, and it can predict makespans analytically for parameter sweeps
// that would be too slow to run in real time.
package cluster

import (
	"fmt"
	"strings"
	"time"
)

// Platform describes one execution environment.
type Platform struct {
	Name         string
	Description  string
	Nodes        int
	CoresPerNode int
	// InterNodeLatency is added to every message whose endpoints are
	// placed on different nodes.
	InterNodeLatency time.Duration
	// InterNodeBandwidth is each directed node-pair link's bandwidth in
	// bytes per second; zero means latency-only (infinite bandwidth).
	// Messages crossing a node boundary occupy their link for
	// bytes/bandwidth, so concurrent transfers over the same node pair
	// queue behind each other (mpi.WithNetwork).
	InterNodeBandwidth float64
	// HostnamePattern formats a node index into the hostname ranks report
	// from ProcessorName; %d receives the node index. A pattern without
	// %d names every node identically (the Colab container case).
	HostnamePattern string
}

// TotalCores reports the platform's total core count.
func (p Platform) TotalCores() int { return p.Nodes * p.CoresPerNode }

// String identifies the platform with its shape.
func (p Platform) String() string {
	return fmt.Sprintf("%s (%d node(s) × %d core(s))", p.Name, p.Nodes, p.CoresPerNode)
}

// NodeOf places a rank on a node, blockwise: consecutive ranks fill a node
// before spilling to the next, the default placement of mpirun's --map-by
// core.
func (p Platform) NodeOf(rank, np int) int {
	if p.Nodes <= 1 {
		return 0
	}
	perNode := (np + p.Nodes - 1) / p.Nodes
	node := rank / perNode
	if node >= p.Nodes {
		node = p.Nodes - 1
	}
	return node
}

// Hostname reports the hostname of the given node.
func (p Platform) Hostname(node int) string {
	if strings.Contains(p.HostnamePattern, "%d") {
		return fmt.Sprintf(p.HostnamePattern, node)
	}
	return p.HostnamePattern
}

// RaspberryPi is the 4-core Raspberry Pi from the mailed kit (Table I): one
// node, four cores, no network.
func RaspberryPi() Platform {
	return Platform{
		Name:            "Raspberry Pi",
		Description:     "4-core SBC from the $100 mailed kit; runs the shared-memory module",
		Nodes:           1,
		CoresPerNode:    4,
		HostnamePattern: "raspberrypi",
	}
}

// ColabVM is Google Colab's free unicore VM: message passing works, speedup
// does not. The hostname is the container id shown in the paper's Figure 2.
func ColabVM() Platform {
	return Platform{
		Name:            "Google Colab VM",
		Description:     "single-core cloud VM; demonstrates message passing without speedup",
		Nodes:           1,
		CoresPerNode:    1,
		HostnamePattern: "d6ff4f902ed6",
	}
}

// Chameleon is a modeled slice of the Chameleon Cloud testbed: multi-node,
// Jupyter-fronted, with real inter-node message latency.
func Chameleon(nodes, coresPerNode int) Platform {
	if nodes < 1 {
		nodes = 4
	}
	if coresPerNode < 1 {
		coresPerNode = 16
	}
	return Platform{
		Name:               "Chameleon cluster",
		Description:        "cloud testbed cluster reached through a Jupyter notebook",
		Nodes:              nodes,
		CoresPerNode:       coresPerNode,
		InterNodeLatency:   50 * time.Microsecond,
		InterNodeBandwidth: 1 << 30, // 10 GbE-class: ~1 GiB/s per link
		HostnamePattern:    "chameleon-node-%d",
	}
}

// PiCluster is a student-built Beowulf cluster of Raspberry Pis connected
// over Ethernet — the "connect multiple SBCs to form their own Beowulf
// cluster" configuration the paper's Section II describes (Toth's portable
// clusters, Iridis-Pi). Fast Ethernet between Pis is slow, so the
// inter-node latency dominates fine-grained communication: the classic
// first lesson in communication-to-computation ratio.
func PiCluster(nodes int) Platform {
	if nodes < 1 {
		nodes = 4
	}
	return Platform{
		Name:               "Raspberry Pi Beowulf cluster",
		Description:        "student-built cluster of 4-core Pis on Fast Ethernet",
		Nodes:              nodes,
		CoresPerNode:       4,
		InterNodeLatency:   200 * time.Microsecond,
		InterNodeBandwidth: 12.5e6, // Fast Ethernet: 100 Mb/s ≈ 12.5 MB/s
		HostnamePattern:    "pi-node-%d",
	}
}

// StOlafVM is the 64-core single-node server at St. Olaf reached through
// VNC or SSH.
func StOlafVM() Platform {
	return Platform{
		Name:            "St. Olaf 64-core VM",
		Description:     "64-core VM on a departmental server; VNC/SSH access",
		Nodes:           1,
		CoresPerNode:    64,
		HostnamePattern: "stolaf-vm",
	}
}

// Platforms lists every modeled platform, keyed by the short names the
// command-line tools accept.
func Platforms() map[string]Platform {
	return map[string]Platform{
		"pi":        RaspberryPi(),
		"picluster": PiCluster(4),
		"colab":     ColabVM(),
		"chameleon": Chameleon(4, 16),
		"stolaf":    StOlafVM(),
	}
}

// Lookup resolves a short platform name.
func Lookup(name string) (Platform, error) {
	p, ok := Platforms()[name]
	if !ok {
		return Platform{}, fmt.Errorf("cluster: unknown platform %q (have pi, picluster, colab, chameleon, stolaf)", name)
	}
	return p, nil
}
