// Package pagerank implements the irregular-communication exemplar: PageRank
// and breadth-first search over a skewed directed graph, the workload shape
// the course's regular stencils and parameter sweeps never produce. Every
// vertex talks to an arbitrary, data-dependent set of peers, a few hub
// vertices absorb most of the traffic, and per-pair message sizes differ by
// orders of magnitude — exactly what the coalesced AlltoallvSlice exchange
// and the one-sided Accumulate push (mpi.Win) exist for.
//
// The graph is generated, not loaded: a counter-based hash drives both the
// degree sequence and the edge endpoints, so every rank regenerates the
// identical graph from (n, avgDeg, seed) and a partitioned run needs no
// input distribution step. The generator is deliberately skewed — a slice of
// hub vertices receives most edges, some vertices are dangling (no out
// edges) — so the exchange is irregular and the dangling-mass AllreduceSliceOp
// is load-bearing.
package pagerank

import "fmt"

// Graph is a directed graph in compressed sparse row form: the out-edges of
// vertex u are Dst[Off[u]:Off[u+1]].
type Graph struct {
	N   int
	Off []int
	Dst []int32
}

// OutDeg reports vertex u's out-degree.
func (g *Graph) OutDeg(u int) int { return g.Off[u+1] - g.Off[u] }

// Edges reports the total edge count.
func (g *Graph) Edges() int { return len(g.Dst) }

// mix is the splitmix64 finalizer: the counter-based hash underneath every
// generation decision, so the graph is a pure function of its parameters.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash(seed int64, a, b int) uint64 {
	return mix(mix(uint64(seed)) ^ mix(uint64(a)<<20^uint64(b)))
}

// Gen generates the skewed graph: out-degrees are hash-drawn around avgDeg
// with occasional high-degree bursts, one vertex in eight is dangling, and
// three quarters of all edges point into the hub range (the first n/8
// vertices), so in-degree is heavily skewed toward the hubs.
func Gen(n, avgDeg int, seed int64) *Graph {
	if n < 2 || avgDeg < 1 {
		panic(fmt.Sprintf("pagerank: bad graph parameters n=%d avgDeg=%d", n, avgDeg))
	}
	hubs := n/8 + 1
	g := &Graph{N: n, Off: make([]int, n+1)}
	for u := 0; u < n; u++ {
		hu := hash(seed, u, 0)
		deg := 0
		if hu%8 != 0 { // one in eight vertices is dangling
			deg = 1 + int(hu>>3)%(2*avgDeg)
			if hu%31 == 0 { // occasional burst: out-degree skew
				deg *= 10
			}
		}
		g.Off[u+1] = g.Off[u] + deg
	}
	g.Dst = make([]int32, g.Off[n])
	for u := 0; u < n; u++ {
		for k, e := 0, g.Off[u]; e < g.Off[u+1]; k, e = k+1, e+1 {
			he := hash(seed+1, u, k)
			var v int
			if he%4 != 0 { // three quarters of edges land on a hub
				v = int(he>>2) % hubs
			} else {
				v = int(he>>2) % n
			}
			if v == u {
				v = (v + 1) % n
			}
			g.Dst[e] = int32(v)
		}
	}
	return g
}

// PageRankSeq is the sequential oracle: damped power iteration with the
// dangling mass redistributed uniformly, run for a fixed iteration count.
// The result sums to 1 (up to rounding).
func PageRankSeq(g *Graph, damping float64, iters int) []float64 {
	n := g.N
	pr := make([]float64, n)
	contrib := make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range contrib {
			contrib[v] = 0
		}
		dangling := 0.0
		for u := 0; u < n; u++ {
			d := g.OutDeg(u)
			if d == 0 {
				dangling += pr[u]
				continue
			}
			w := pr[u] / float64(d)
			for _, v := range g.Dst[g.Off[u]:g.Off[u+1]] {
				contrib[v] += w
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range pr {
			pr[v] = base + damping*contrib[v]
		}
	}
	return pr
}

// BFSSeq is the breadth-first oracle: the level (hop distance) of every
// vertex from src, -1 for unreachable. Levels are exact integers, so every
// correct parallel traversal is bit-equal to this one.
func BFSSeq(g *Graph, src int) []int32 {
	level := make([]int32, g.N)
	for v := range level {
		level[v] = -1
	}
	level[src] = 0
	frontier := []int32{int32(src)}
	for depth := int32(0); len(frontier) > 0; depth++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Dst[g.Off[u]:g.Off[u+1]] {
				if level[v] < 0 {
					level[v] = depth + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level
}
