package main

import (
	"math"
	"time"

	"repro/internal/exemplars/pagerank"
	"repro/internal/mpi"
)

const (
	prVertices = 20000
	prAvgDeg   = 8
	prDamping  = 0.85
	prIters    = 20
	prTol      = 1e-12
)

// pagerankInputs is the generated graph with the oracle's scratch and
// answer. The oracle runs as the yardstick, so its answer is recomputed, on
// the same arrays, every time it is called.
type pagerankInputs struct {
	g       *pagerank.Graph
	c       csr
	want    []float64 // the oracle's result
	scratch []float64
}

func newPagerankInputs(seed int64) *pagerankInputs {
	g := pagerank.Gen(prVertices, prAvgDeg, seed)
	in := &pagerankInputs{
		g:       g,
		c:       csr{n: g.N, off: g.Off, dst: g.Dst},
		want:    make([]float64, g.N),
		scratch: make([]float64, g.N),
	}
	in.oracle()
	return in
}

func (in *pagerankInputs) oracle() { powerIteration(&in.c, prDamping, prIters, in.want, in.scratch) }

func (in *pagerankInputs) check(got []float64) error {
	if len(got) != len(in.want) {
		return wrongf("pagerank: %d values, want %d", len(got), len(in.want))
	}
	for v := range got {
		if d := math.Abs(got[v] - in.want[v]); !(d <= prTol) {
			return wrongf("pagerank: vertex %d is off by %g", v, d)
		}
	}
	return nil
}

// open runs PageRankMPI on np ranks; rank 0 issues ops and the others follow
// a one-value go/stop message into each one.
func (in *pagerankInputs) open(np int, body func(*session) error) error {
	return mpi.Run(np, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			for {
				st, err := c.Recv(0, mpi.AnyTag, nil)
				if err != nil {
					return err
				}
				if st.Tag == tagStop {
					return nil
				}
				if _, err := pagerank.PageRankMPI(c, in.g, prDamping, prIters); err != nil {
					return err
				}
			}
		}
		tell := func(tag int) error {
			for r := 1; r < np; r++ {
				if err := c.Send(r, tag, true); err != nil {
					return err
				}
			}
			return nil
		}
		var got []float64
		s := &session{
			op: func(tr *recorder) error {
				o := tr.begin("pagerank-np2-local")
				if err := tell(tagData); err != nil {
					return err
				}
				t := o.now()
				pr, err := pagerank.PageRankMPI(c, in.g, prDamping, prIters)
				if err != nil {
					return err
				}
				o.child("pagerank.op", t)
				o.done()
				got = pr
				// Probability is conserved: the cheap check. verify compares
				// every vertex with the oracle.
				sum := 0.0
				for _, x := range pr {
					sum += x
				}
				if math.Abs(sum-1) > 1e-9 {
					return wrongf("pagerank: mass %v, want 1", sum)
				}
				return nil
			},
			verify: func() error { return in.check(got) },
		}
		err := body(s)
		if serr := tell(tagStop); err == nil {
			err = serr
		}
		return err
	})
}

// foreignCounts gives, for each of the two ranks, how many distinct vertices
// of the other rank its out-edges reach: the per-iteration alltoallv shape.
func (in *pagerankInputs) foreignCounts() [2]int {
	var counts [2]int
	n := in.g.N
	for r := 0; r < 2; r++ {
		lo, hi := n*r/2, n*(r+1)/2
		seen := map[int32]bool{}
		for _, v := range in.g.Dst[in.g.Off[lo]:in.g.Off[hi]] {
			if int(v) < lo || int(v) >= hi {
				seen[v] = true
			}
		}
		counts[r] = len(seen)
	}
	return counts
}

// collectiveProbes times each collective PageRankMPI uses, alone, in a world
// of the same size at the same message shapes, and returns mean µs per call.
func (in *pagerankInputs) collectiveProbes(budget time.Duration) (map[string]float64, error) {
	counts := in.foreignCounts()
	half := in.g.N / 2
	m := map[string]float64{}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		sendCounts, recvCounts := make([]int, 2), make([]int, 2)
		sendCounts[peer], recvCounts[peer] = counts[me], counts[peer]
		send, recv := make([]float64, counts[me]), make([]float64, counts[peer])
		block := make([]float64, half)
		one := []float64{1}
		probes := []struct {
			name string
			call func() error
		}{
			{"coll.alltoallv_us", func() error { return mpi.AlltoallvInto(c, send, sendCounts, recv, recvCounts) }},
			{"coll.allreduce_us", func() error { _, err := mpi.AllreduceSliceOp(c, one, mpi.Sum); return err }},
			{"coll.allgather_us", func() error { _, err := mpi.Allgather(c, block); return err }},
			{"coll.barrier_us", c.Barrier},
		}
		for _, p := range probes {
			// Rank 0 decides when the budget is spent and says so in an
			// allreduce-free way: a fixed call count from one warm-up call.
			t0 := time.Now()
			if err := p.call(); err != nil {
				return err
			}
			per := time.Since(t0)
			n, err := mpi.Bcast(c, int(budget/time.Duration(len(probes))/(per+1))+1, 0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			for i := 0; i < n; i++ {
				if err := p.call(); err != nil {
					return err
				}
			}
			if me == 0 {
				m[p.name] = float64(time.Since(t0)) / float64(n) / 1e3
			}
		}
		return nil
	})
	return m, err
}

func buildPagerank(seed int64) (*workload, error) {
	in := newPagerankInputs(seed)
	return &workload{
		newYard: func() (func() error, func(), error) {
			return func() error { in.oracle(); return nil }, func() {}, nil
		},
		open: func(body func(*session) error) error { return in.open(2, body) },
		probe: func(ps *passStats, budget time.Duration) (map[string]float64, error) {
			m, err := in.collectiveProbes(budget / 2)
			if err != nil {
				return nil, err
			}
			m["pagerank.seq_us"] = ps.YardUs
			m["pagerank.comm_frac"] = ((m["coll.alltoallv_us"]+m["coll.allreduce_us"])*prIters + m["coll.allgather_us"]) / ps.OpP50Us
			// np=1 against the oracle: what the exemplar's own plan and
			// packing cost with no communication at all.
			err = in.open(1, func(s *session) error {
				op := func() error { return s.op(nil) }
				ws, err := timedPass(op, func() error { in.oracle(); return nil }, 1, budget/2, budget/8, s.verify)
				if err != nil {
					return err
				}
				m["pagerank.np1_rel_cost"] = median(ratios(ws))
				return nil
			})
			return m, err
		},
	}, nil
}
