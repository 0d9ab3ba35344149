package pagerank

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// Oracle pinning: the distributed variants are checked against the
// sequential ones on every transport — bit-equal for BFS (levels are exact
// integers), and to a tight absolute tolerance for PageRank (the
// distributed scatter-adds reassociate the floating-point sums; nothing
// else may differ).

const prTol = 1e-12

func testGraph() *Graph { return Gen(400, 6, 42) }

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestGenDeterministicAndSkewed: the generator is a pure function of its
// parameters, and the graph it builds actually has the irregular shape the
// exemplar needs — hubs, bursts, dangling vertices.
func TestGenDeterministicAndSkewed(t *testing.T) {
	g1, g2 := testGraph(), testGraph()
	if g1.Edges() != g2.Edges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.Edges(), g2.Edges())
	}
	for i := range g1.Dst {
		if g1.Dst[i] != g2.Dst[i] {
			t.Fatalf("edge %d differs: %d vs %d", i, g1.Dst[i], g2.Dst[i])
		}
	}
	dangling, maxDeg := 0, 0
	for u := 0; u < g1.N; u++ {
		d := g1.OutDeg(u)
		if d == 0 {
			dangling++
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if dangling == 0 {
		t.Fatal("no dangling vertices: the dangling-mass Allreduce would be dead code")
	}
	avg := float64(g1.Edges()) / float64(g1.N)
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max out-degree %d not skewed vs average %.1f", maxDeg, avg)
	}
	// In-degree skew: the hub range must absorb the majority of edges.
	hubs := g1.N/8 + 1
	intoHubs := 0
	for _, v := range g1.Dst {
		if int(v) < hubs {
			intoHubs++
		}
	}
	if 2*intoHubs < g1.Edges() {
		t.Fatalf("only %d/%d edges land on hubs: in-degree not skewed", intoHubs, g1.Edges())
	}
	if sum := vectorSum(PageRankSeq(g1, 0.85, 30)); math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sequential PageRank sums to %v, want 1", sum)
	}
}

func vectorSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

type prLauncher struct {
	name string
	run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
}

var prLaunchers = func() []prLauncher {
	ls := []prLauncher{{"local", mpi.Run}, {"tcp", mpi.RunTCP}}
	if mpi.ShmSupported() {
		ls = append(ls, prLauncher{"shm", mpi.RunShm})
	}
	return ls
}()

func TestPageRankMPIMatchesSeq(t *testing.T) {
	g := testGraph()
	const damping, iters = 0.85, 20
	want := PageRankSeq(g, damping, iters)
	for _, l := range prLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, np := range []int{1, 2, 3, 5} {
				err := l.run(np, func(c *mpi.Comm) error {
					got, err := PageRankMPI(c, g, damping, iters)
					if err != nil {
						return err
					}
					if d := maxAbsDiff(got, want); d > prTol {
						t.Errorf("np=%d rank=%d: max |Δ| = %g > %g", np, c.Rank(), d, prTol)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("np=%d: %v", np, err)
				}
			}
		})
	}
}

func TestPageRankRMAMatchesSeq(t *testing.T) {
	g := testGraph()
	const damping, iters = 0.85, 20
	want := PageRankSeq(g, damping, iters)
	for _, l := range prLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, np := range []int{1, 2, 4} {
				err := l.run(np, func(c *mpi.Comm) error {
					got, err := PageRankRMA(c, g, damping, iters)
					if err != nil {
						return err
					}
					if d := maxAbsDiff(got, want); d > prTol {
						t.Errorf("np=%d rank=%d: max |Δ| = %g > %g", np, c.Rank(), d, prTol)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("np=%d: %v", np, err)
				}
			}
		})
	}
}

// TestPageRankVariantsAgree: the two-sided and one-sided formulations reach
// the same fixed point on the same world — the RMA layer is a transport for
// the same arithmetic, not a different algorithm.
func TestPageRankVariantsAgree(t *testing.T) {
	g := testGraph()
	const damping, iters = 0.85, 15
	err := mpi.Run(4, func(c *mpi.Comm) error {
		a, err := PageRankMPI(c, g, damping, iters)
		if err != nil {
			return err
		}
		b, err := PageRankRMA(c, g, damping, iters)
		if err != nil {
			return err
		}
		if d := maxAbsDiff(a, b); d > prTol {
			t.Errorf("rank %d: variants differ by %g", c.Rank(), d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBFSMPIBitEqual(t *testing.T) {
	g := testGraph()
	const src = 0 // a hub: reaches most of the graph
	want := BFSSeq(g, src)
	reached := 0
	for _, l := range want {
		if l >= 0 {
			reached++
		}
	}
	if reached < g.N/2 {
		t.Fatalf("BFS source reaches only %d/%d vertices: weak test graph", reached, g.N)
	}
	for _, l := range prLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, np := range []int{1, 2, 3, 5} {
				err := l.run(np, func(c *mpi.Comm) error {
					got, err := BFSMPI(c, g, src)
					if err != nil {
						return err
					}
					for v := range got {
						if got[v] != want[v] {
							t.Errorf("np=%d rank=%d: level[%d] = %d, want %d", np, c.Rank(), v, got[v], want[v])
							return nil
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("np=%d: %v", np, err)
				}
			}
		})
	}
}

// TestPageRankRecover: seeded kill plans at several points of the run —
// before the first checkpoint, mid-run, rank 0 itself — on the local, TCP,
// and shm transports. The survivors' result must still match the
// sequential oracle: the checkpoint restore plus re-decomposition over the
// shrunken world preserves the arithmetic up to reassociation. The respawn
// row kills rank 2 once under mpi.WithRespawn: the same function relaunches
// it and must end at full width, every rank at the oracle's fixed point.
func TestPageRankRecover(t *testing.T) {
	g := Gen(300, 5, 7)
	const damping, iters, every = 0.85, 24, 6
	want := PageRankSeq(g, damping, iters)
	const tagBcast = -3 // the runtime's reserved tag for Bcast's tree
	kill := func(victim, tag, skip int) *mpi.FaultPlan {
		return &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
			Src: victim, Dst: mpi.AnySource, Tag: tag,
			SkipFirst: skip, Action: mpi.FaultKillRank,
		}}}
	}
	once := kill(2, mpi.AnyTag, 100)
	once.Rules[0].Count = 1
	cases := []struct {
		name    string
		np      int
		plan    *mpi.FaultPlan
		respawn bool
	}{
		{"no-failure", 4, nil, false},
		{"before-first-checkpoint", 4, kill(2, mpi.AnyTag, 3), false},
		{"mid-run", 4, kill(1, mpi.AnyTag, 100), false},
		{"rank0-dies", 4, kill(0, mpi.AnyTag, 120), false},
		// Rank 1 dies on its first forward down a Bcast tree, early in the
		// run, while its subtree waits for it.
		{"bcast-forwarder-dies", 5, kill(1, tagBcast, 0), false},
		{"respawn-one-shot-kill", 4, once, true},
	}
	launchers := []struct {
		name string
		run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
	}{
		{"local", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	if mpi.ShmSupported() {
		launchers = append(launchers, struct {
			name string
			run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
		}{"shm", mpi.RunShm})
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					store := ckpt.NewMemStore()
					rep := &mpi.FaultReport{}
					opts := []mpi.Option{mpi.WithRecovery(), mpi.WithFaultReport(rep)}
					if tc.respawn {
						opts[0] = mpi.WithRespawn()
					}
					if tc.plan != nil {
						opts = append(opts, mpi.WithFaults(*tc.plan))
					}
					var mu sync.Mutex
					results := map[int][]float64{}
					done := make(chan error, 1)
					go func() {
						done <- l.run(tc.np, func(c *mpi.Comm) error {
							got, err := PageRankRecover(c, g, damping, iters, store, every)
							if err != nil {
								return err
							}
							mu.Lock()
							results[c.Rank()] = got
							mu.Unlock()
							return nil
						}, opts...)
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("recovered run should report success, got %v", err)
						}
					case <-time.After(60 * time.Second):
						t.Fatal("recovery run wedged")
					}
					if len(results) == 0 {
						t.Fatal("no survivor returned a result")
					}
					for rank, got := range results {
						if d := maxAbsDiff(got, want); d > prTol {
							t.Fatalf("rank %d: recovered result off by %g > %g", rank, d, prTol)
						}
					}
					if tc.respawn {
						if len(results) != tc.np || len(rep.Injected()) != 1 {
							t.Fatalf("%d of %d ranks finished after %d kills, want full width after one",
								len(results), tc.np, len(rep.Injected()))
						}
					} else if tc.plan != nil && len(results) == tc.np {
						t.Fatal("fault plan injected no failure: every rank survived")
					}
				})
			}
		})
	}
}

// TestExchangePlanInvariants: the linear-time plan against its definition,
// over worlds that include ranks with an empty vertex range (n < np) and
// ranks with no foreign edge (np = 1). Every edge's accumulator index is in
// range and names the edge's destination — the owned vertex itself, or a
// packed send slot that stands for exactly that foreign vertex — and each
// owner's packed vertices are strictly ascending inside the owner's range.
func TestExchangePlanInvariants(t *testing.T) {
	for _, n := range []int{2, 7, 64, 2001} {
		for seed := int64(1); seed <= 3; seed++ {
			g := Gen(n, 3, seed)
			for np := 1; np <= 7; np++ {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					lo, hi := vrange(n, c.Rank(), np)
					own := hi - lo
					x, err := newExchange(c, g, uniform(n, own))
					if err != nil {
						return err
					}
					return checkPlan(x, g, c.Rank(), np, lo, own)
				})
				if err != nil {
					t.Fatalf("n=%d seed=%d np=%d: %v", n, seed, np, err)
				}
			}
		}
	}
}

func checkPlan(x *exchange, g *Graph, rank, np, lo, own int) error {
	sendLen := len(x.acc) - own
	sum := 0
	for _, ct := range x.sendCounts {
		sum += ct
	}
	if sum != sendLen || x.sendCounts[rank] != 0 {
		return fmt.Errorf("rank %d: sendCounts %v sum to %d, packed block holds %d", rank, x.sendCounts, sum, sendLen)
	}
	packed := make([]int32, sendLen) // the vertex each send slot stands for
	for i := range packed {
		packed[i] = -1
	}
	for e, s := range x.edgeSlot {
		v := g.Dst[g.Off[lo]+e]
		switch {
		case s < 0 || int(s) >= len(x.acc):
			return fmt.Errorf("rank %d: edge %d has slot %d outside [0,%d)", rank, e, s, len(x.acc))
		case int(s) < own:
			if int(v)-lo != int(s) {
				return fmt.Errorf("rank %d: edge %d -> owned vertex %d has slot %d", rank, e, v, s)
			}
		case packed[int(s)-own] >= 0 && packed[int(s)-own] != v:
			return fmt.Errorf("rank %d: send slot %d stands for vertices %d and %d", rank, int(s)-own, packed[int(s)-own], v)
		default:
			packed[int(s)-own] = v
		}
	}
	k := 0
	for o, ct := range x.sendCounts {
		olo, ohi := vrange(g.N, o, np)
		for i := 0; i < ct; i, k = i+1, k+1 {
			v := int(packed[k])
			if v < olo || v >= ohi || ownerOf(v, g.N, np) != o {
				return fmt.Errorf("rank %d: slot %d of owner %d holds vertex %d outside [%d,%d)", rank, k, o, v, olo, ohi)
			}
			if i > 0 && packed[k-1] >= packed[k] {
				return fmt.Errorf("rank %d: owner %d's packed vertices not strictly ascending at slot %d", rank, o, k)
			}
		}
	}
	recvLen := 0
	for _, ct := range x.recvCounts {
		recvLen += ct
	}
	if len(x.recvIdx) != recvLen || len(x.recvVals) != recvLen {
		return fmt.Errorf("rank %d: %d recv indices, %d recv values, counts sum to %d", rank, len(x.recvIdx), len(x.recvVals), recvLen)
	}
	for i, v := range x.recvIdx {
		if v < 0 || int(v) >= own {
			return fmt.Errorf("rank %d: recvIdx[%d] = %d outside [0,%d)", rank, i, v, own)
		}
	}
	return nil
}

// resultHash is FNV-64a over the IEEE bits of the vector, little-endian.
func resultHash(pr []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range pr {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPageRankGoldenBits: the per-vertex summation order is part of the
// exemplar's contract (local edges in scan order, then one term per source
// rank in rank order), so a rewrite of the plan or the kernel must reproduce
// the result bit for bit. The constants were computed at the commit before
// the accumulator/linear-plan rewrite (PR 14's tree). PageRankRMA is not
// pinned here: Accumulate arrival order is nondeterministic by design.
func TestPageRankGoldenBits(t *testing.T) {
	g := Gen(2000, 8, 1)
	const damping, iters = 0.85, 20
	golden := map[int]uint64{
		1: 0x736ac987c11c83fc,
		2: 0x4483f41720d24cd4,
		3: 0x3149d23b3b23b4f0,
		5: 0x94931b51959b2ec1,
	}
	for np, want := range golden {
		check := func(name string, c *mpi.Comm, pr []float64, err error) error {
			if err == nil && resultHash(pr) != want {
				t.Errorf("%s np=%d rank=%d: result bits hash to %#x, want %#x", name, np, c.Rank(), resultHash(pr), want)
			}
			return err
		}
		err := mpi.Run(np, func(c *mpi.Comm) error {
			pr, err := PageRankMPI(c, g, damping, iters)
			return check("PageRankMPI", c, pr, err)
		})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		err = mpi.Run(np, func(c *mpi.Comm) error {
			pr, err := PageRankRecover(c, g, damping, iters, ckpt.NewMemStore(), 6)
			return check("PageRankRecover", c, pr, err)
		}, mpi.WithRecovery())
		if err != nil {
			t.Fatalf("np=%d recover: %v", np, err)
		}
	}
}

// TestStepAllocatesNothing: a steady-state step at np=1 allocates exactly
// what its two collective calls allocate on their own — the exemplar's
// buffers, plan and kernel closure are all set up once.
func TestStepAllocatesNothing(t *testing.T) {
	g := testGraph()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		x, err := newExchange(c, g, uniform(g.N, g.N))
		if err != nil {
			return err
		}
		var stepErr error
		collectives := testing.AllocsPerRun(50, func() {
			if _, err := mpi.AllreduceSliceOp(c, x.dang, mpi.Sum); err != nil {
				stepErr = err
			}
			if err := mpi.AlltoallvInto(c, x.acc[g.N:], x.sendCounts, x.recvVals, x.recvCounts); err != nil {
				stepErr = err
			}
		})
		step := testing.AllocsPerRun(50, func() {
			if err := x.step(c, 0.85); err != nil {
				stepErr = err
			}
		})
		if step != collectives {
			t.Errorf("one step allocates %v times, its collectives alone %v: the exemplar allocates per step", step, collectives)
		}
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The exemplar against its oracle without the harness: same graph shape as
// the gating benchmark's pagerank-np2-local workload.
var benchGraph = sync.OnceValue(func() *Graph { return Gen(20000, 8, 1) })

func BenchmarkPageRankSeq(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRankSeq(g, 0.85, 20)
	}
}

func BenchmarkPageRankMPI(b *testing.B) {
	g := benchGraph()
	for _, np := range []int{1, 2} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			err := mpi.Run(np, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := PageRankMPI(c, g, 0.85, 20); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
