package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Hierarchical-collective parity: with a forced multi-node topology, every
// hierarchy-eligible collective must produce element-identical results to
// the flat algorithms, on every transport, for scalar and vector payloads,
// with leader and non-leader roots. The payload data is integer, so tree,
// Rabenseifner, and two-level fold orders are all exactly equal.

// hierTopologies returns the node assignments exercised for a world size:
// always the even two-node split, plus an uneven and a three-node layout
// where the size allows.
func hierTopologies(np int) [][]int {
	block := func(nodes int) []int {
		topo := make([]int, np)
		for r := range topo {
			topo[r] = r * nodes / np
		}
		return topo
	}
	topos := [][]int{block(2)}
	if np >= 3 {
		// Uneven: one rank alone on node 0, the rest on node 1.
		uneven := make([]int, np)
		for r := 1; r < np; r++ {
			uneven[r] = 1
		}
		topos = append(topos, uneven)
	}
	if np >= 6 {
		topos = append(topos, block(3))
	}
	return topos
}

// hierCollectiveBody runs one of everything the hierarchy gates and
// packages the per-rank observations for structural comparison.
func hierCollectiveBody(c *Comm) (any, error) {
	np := c.Size()
	rootA := 0      // always a leader
	rootB := np - 1 // a non-leader whenever its node holds >1 rank
	type result struct {
		BcastA, BcastB   int
		ReduceA, ReduceB int
		Allreduce        int
		Barriered        bool
		AllreduceS       []int
		AllreduceOp      []int64
	}
	var res result
	var err error

	if err = c.Barrier(); err != nil {
		return nil, err
	}
	res.Barriered = true

	if res.BcastA, err = Bcast(c, 1000+c.Rank(), rootA); err != nil {
		return nil, err
	}
	if res.BcastB, err = Bcast(c, 2000+c.Rank(), rootB); err != nil {
		return nil, err
	}
	sum := func(a, b int) int { return a + b }
	if res.ReduceA, err = Reduce(c, c.Rank()+1, sum, rootA); err != nil {
		return nil, err
	}
	if res.ReduceB, err = Reduce(c, 10*c.Rank()+1, sum, rootB); err != nil {
		return nil, err
	}
	if res.Allreduce, err = Allreduce(c, c.Rank()*c.Rank()+7, sum); err != nil {
		return nil, err
	}

	// Vector payloads: above the default threshold (1024 elements) so the
	// bandwidth-optimal paths — and their hierarchical composition — run.
	const n = 3000
	v := make([]int, n)
	for i := range v {
		v[i] = c.Rank()*31 + i
	}
	if res.AllreduceS, err = AllreduceSlice(c, v, sum); err != nil {
		return nil, err
	}
	v64 := make([]int64, n)
	for i := range v64 {
		v64[i] = int64(c.Rank() + i)
	}
	if res.AllreduceOp, err = AllreduceSliceOp(c, v64, Max); err != nil {
		return nil, err
	}
	return res, nil
}

// runHierParity compares per-rank results between HierOff (flat) and HierOn
// (two-level) under one launcher, then across launchers.
func TestHierCollectiveParity(t *testing.T) {
	launchers := []parityMode{
		{name: "local", run: Run},
		{name: "tcp", run: RunTCP},
	}
	if shmSupported {
		launchers = append(launchers, parityMode{name: "shm", run: RunShm})
	}
	for _, np := range []int{1, 2, 3, 4, 8} {
		for ti, topo := range hierTopologies(np) {
			var want []any
			var wantDesc string
			for _, l := range launchers {
				for _, hier := range []HierMode{HierOff, HierOn} {
					desc := fmt.Sprintf("np=%d topo=%v %s hier=%v", np, topo, l.name, hier)
					results := make([]any, np)
					var mu sync.Mutex
					opts := append([]Option{WithTopology(topo), WithHierarchy(hier)}, l.opts...)
					err := l.run(np, func(c *Comm) error {
						v, err := hierCollectiveBody(c)
						if err != nil {
							return err
						}
						mu.Lock()
						results[c.Rank()] = v
						mu.Unlock()
						return nil
					}, opts...)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if want == nil {
						want, wantDesc = results, desc
						continue
					}
					if !reflect.DeepEqual(results, want) {
						t.Errorf("%s results differ from %s", desc, wantDesc)
					}
				}
			}
			_ = ti
		}
	}
}

// TestHierSelection pins when the two-level schedules engage: never on a
// single node or under HierOff, under HierAuto only with co-located ranks,
// always on a multi-node communicator under HierOn — and the runtime's own
// sub-communicators must never recurse into another level.
func TestHierSelection(t *testing.T) {
	cases := []struct {
		name   string
		np     int
		topo   []int
		mode   HierMode
		expect bool
	}{
		{"single-rank", 1, []int{0}, HierOn, false},
		{"one-node", 4, []int{0, 0, 0, 0}, HierOn, false},
		{"auto-two-nodes", 4, []int{0, 0, 1, 1}, HierAuto, true},
		{"auto-no-coloc", 4, []int{0, 1, 2, 3}, HierAuto, false},
		{"on-no-coloc", 4, []int{0, 1, 2, 3}, HierOn, true},
		{"off", 4, []int{0, 0, 1, 1}, HierOff, false},
		{"sparse-ids", 4, []int{7, 7, 42, 42}, HierAuto, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(tc.np, func(c *Comm) error {
				h := c.hier()
				if got := h != nil; got != tc.expect {
					return fmt.Errorf("rank %d: hier engaged = %v, want %v", c.Rank(), got, tc.expect)
				}
				if h != nil {
					if h.nodeComm.hier() != nil {
						return fmt.Errorf("rank %d: nodeComm recursed into another hierarchy level", c.Rank())
					}
					if h.leaderComm != nil && h.leaderComm.hier() != nil {
						return fmt.Errorf("rank %d: leaderComm recursed into another hierarchy level", c.Rank())
					}
				}
				// The collectives must work regardless of the verdict.
				sum, err := Allreduce(c, c.Rank()+1, func(a, b int) int { return a + b })
				if err != nil {
					return err
				}
				if want := tc.np * (tc.np + 1) / 2; sum != want {
					return fmt.Errorf("allreduce = %d, want %d", sum, want)
				}
				return nil
			}, WithTopology(tc.topo), WithHierarchy(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHierFromProcessorNames: without WithTopology, the node assignment
// derives from processor names — ranks sharing a name share a node — which
// is how cluster.Launch's placement used to reach the collectives before
// the explicit option existed.
func TestHierFromProcessorNames(t *testing.T) {
	names := []string{"node-a", "node-a", "node-b", "node-b"}
	err := Run(4, func(c *Comm) error {
		h := c.hier()
		if h == nil {
			return fmt.Errorf("rank %d: hierarchy not derived from names", c.Rank())
		}
		if h.nodeComm.Size() != 2 {
			return fmt.Errorf("rank %d: node comm size %d, want 2", c.Rank(), h.nodeComm.Size())
		}
		prod, err := Allreduce(c, c.Rank()+1, func(a, b int) int { return a * b })
		if err != nil {
			return err
		}
		if prod != 24 {
			return fmt.Errorf("allreduce = %d, want 24", prod)
		}
		return nil
	}, WithProcessorNames(names))
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierSubcommTopology: a Split-derived communicator gets its own
// two-level view over its own members, and one confined to a single node
// goes flat.
func TestHierSubcommTopology(t *testing.T) {
	topo := []int{0, 0, 1, 1, 2, 2}
	err := Run(6, func(c *Comm) error {
		// Even/odd split: each child has one rank per node → flat under auto.
		child, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if child.hier() != nil {
			return fmt.Errorf("rank %d: no-coloc child engaged hierarchy under auto", c.Rank())
		}
		// First two nodes only: still hierarchical.
		color := ColorUndefined
		if c.Rank() < 4 {
			color = 0
		}
		four, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if four != nil {
			if four.hier() == nil {
				return fmt.Errorf("rank %d: two-node child did not engage hierarchy", c.Rank())
			}
			sum, err := Allreduce(four, c.Rank(), func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			if sum != 0+1+2+3 {
				return fmt.Errorf("child allreduce = %d", sum)
			}
		}
		return c.Barrier()
	}, WithTopology(topo))
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierKillRankMidCollective: an injected rank death during a
// hierarchical allreduce must revoke the world — every survivor's collective
// fails with ErrWorldAborted wrapping ErrRankKilled, not a hang.
func TestHierKillRankMidCollective(t *testing.T) {
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 2, Action: FaultKillRank}},
	}
	err := Run(4, func(c *Comm) error {
		for i := 0; ; i++ {
			if _, err := Allreduce(c, i, func(a, b int) int { return a + b }); err != nil {
				return err
			}
		}
	}, WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithFaults(plan))
	if err == nil {
		t.Fatal("kill-rank run succeeded")
	}
	if !errors.Is(err, ErrRankKilled) {
		t.Fatalf("error %v does not wrap ErrRankKilled", err)
	}
}

// TestHierDeadlineMidCollective: a rank that never enters the hierarchical
// collective trips WithDeadline at the others, not a hang.
func TestHierDeadlineMidCollective(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			return nil // never shows up for the collective
		}
		v := make([]int, 4096)
		_, err := AllreduceSlice(c, v, func(a, b int) int { return a + b })
		return err
	}, WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("deserter run succeeded")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v does not match ErrDeadlineExceeded", err)
	}
}

// TestHierRecoveryShrink: under WithRecovery a rank death mid-hierarchical-
// collective surfaces as the retryable rank-failure error, and the
// survivors can Shrink to a working communicator whose collectives still
// agree — the same ULFM discipline the flat collectives support.
func TestHierRecoveryShrink(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("synthetic crash")
		}
		sum := func(a, b int) int { return a + b }
		for {
			_, err := Allreduce(c, c.Rank(), sum)
			if err == nil {
				// Peer not yet failed; retry until the failure interrupts us.
				time.Sleep(time.Millisecond)
				continue
			}
			if !errors.Is(err, ErrRankFailed) {
				return err
			}
			break
		}
		// Recover revokes before it shrinks, as ULFM requires. Under the
		// two-level schedule this is load-bearing, not ceremony: rank 1's
		// phases touch only its node peer and leader (both alive), so
		// without the revoke it would wait forever inside the intra-node
		// broadcast for a leader that already errored out.
		shrunk, err := c.Recover()
		if err != nil {
			return err
		}
		got, err := Allreduce(shrunk, 1, sum)
		if err != nil {
			return err
		}
		if got != 3 {
			return fmt.Errorf("shrunk allreduce = %d, want 3", got)
		}
		return nil
	}, WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithRecovery())
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierRecoverTwice: the revoke inside Recover reaches the two-level
// phases of a communicator that Recover itself returned. Rank 2 dies and the
// survivors recover; then rank 3 dies, and
// only after the survivors have seen it do they enter a two-level
// allreduce, so nothing interrupts rank 1, which waits in the intra-node
// phase on its live leader, rank 0, but rank 0's revoke of the parent.
func TestHierRecoverTwice(t *testing.T) {
	// Revoking a user communicator reaches its five runtime
	// sub-communicators and not its Split child: for the world, a Split
	// communicator, a restored one and an epoch's world.
	var split sync.WaitGroup // Recover revokes the world: not before every rank is out of Split
	split.Add(4)
	errs := make([]error, 4)
	err := Run(4, eachRank(errs, func(c *Comm) error {
		child, err := c.Split(0, c.Rank())
		split.Done()
		if err != nil {
			return err
		}
		split.Wait()
		owners := []*Comm{c, child, nil, c.world.epochComm(c, 1)}
		children := []*Comm{child, nil, nil, nil}
		if owners[2], err = c.Recover(); err != nil {
			return err
		}
		for i := 1; i < len(owners); i++ {
			if children[i], err = owners[i].Split(0, c.Rank()); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			return nil
		}
		for i, o := range owners {
			pc := o.progress().pc
			subs := []*Comm{o.hier().nodeComm, o.hier().leaderComm, pc, pc.hier().nodeComm, pc.hier().leaderComm}
			r := &recoveryState{revoked: map[ctxKey]bool{o.owner: true}}
			ids := map[int64]bool{o.ctx: true, children[i].ctx: true}
			for _, sub := range subs {
				if !r.revokedLocked(sub) {
					return fmt.Errorf("revoking context %d does not reach its sub-communicator %d", o.ctx, sub.ctx)
				}
				ids[sub.ctx] = true
			}
			if r.revokedLocked(children[i]) {
				return fmt.Errorf("revoking context %d revoked its Split child %d", o.ctx, children[i].ctx)
			}
			if len(ids) != 2+len(subs) {
				return fmt.Errorf("context %d, its Split child and its sub-communicators share ids: %v", o.ctx, ids)
			}
		}
		return nil
	}), WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithRecovery())
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}

	sum := func(a, b int) int { return a + b }
	err = runWithWatchdog(t, 30*time.Second, func() error {
		return Run(4, func(c *Comm) error {
			if c.Rank() == 2 {
				return errDeliberate
			}
			nc, err := c.Recover()
			if err != nil {
				return err
			}
			if c.Rank() == 3 {
				return errDeliberate
			}
			for len(nc.FailedRanks()) == 0 {
				time.Sleep(time.Millisecond)
			}
			if _, err := Allreduce(nc, 1, sum); !errors.Is(err, ErrRankFailed) {
				return fmt.Errorf("allreduce across rank 3's failure: got %v", err)
			}
			if nc, err = nc.Recover(); err != nil {
				return err
			}
			if got, err := Allreduce(nc, 1, sum); err != nil || got != 2 {
				return fmt.Errorf("allreduce after the second Recover = %d, %v; want 2", got, err)
			}
			return nil
		}, WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithRecovery())
	})
	if err != nil {
		t.Fatal(err)
	}
}
