package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Nonblocking-collective tests: the progress engine must produce exactly the
// blocking collectives' results (on every transport, flat and hierarchical),
// compose with Wait/Waitall, keep post order across multiple
// outstanding operations, and inherit the failure model — abort, deadline,
// fault injection — through Wait.

// nonblockingBody posts a scalar and a vector IAllreduce, overlaps a
// blocking collective on the parent communicator while they are in flight,
// and returns the per-rank observations.
func nonblockingBody(c *Comm) (any, error) {
	type result struct {
		Allreduce  int
		AllreduceS []int
		Overlapped int
	}
	var res result
	sum := func(a, b int) int { return a + b }

	v := make([]int, 2000)
	for i := range v {
		v[i] = c.Rank()*17 + i
	}
	reqs := []*Request{
		IAllreduce(c, 3*c.Rank(), sum, &res.Allreduce),
		IAllreduce(c, v, CombineSlices[int](Sum), &res.AllreduceS),
	}

	// The shadow context isolates the engine's traffic: a blocking
	// collective on the parent communicator may proceed while the posted
	// schedules are still in flight.
	ov, err := Allreduce(c, c.Rank()+1000, sum)
	if err != nil {
		return nil, err
	}
	res.Overlapped = ov

	if _, err := Waitall(reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// TestNonblockingCollectiveParity checks every rank's observations against
// the directly computed expectation, across world sizes, transports, and
// flat vs hierarchical topologies.
func TestNonblockingCollectiveParity(t *testing.T) {
	launchers := []parityMode{
		{name: "local", run: Run},
		{name: "tcp", run: RunTCP},
	}
	if shmSupported {
		launchers = append(launchers, parityMode{name: "shm", run: RunShm})
	}
	for _, np := range []int{1, 2, 3, 4, 8} {
		topos := append([][]int{nil}, hierTopologies(np)...)
		for _, topo := range topos {
			var want []any
			var wantDesc string
			for _, l := range launchers {
				desc := fmt.Sprintf("np=%d topo=%v %s", np, topo, l.name)
				results := make([]any, np)
				var mu sync.Mutex
				opts := l.opts
				if topo != nil {
					opts = append([]Option{WithTopology(topo), WithHierarchy(HierOn)}, l.opts...)
				}
				err := l.run(np, func(c *Comm) error {
					v, err := nonblockingBody(c)
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
					t.Fatalf("%s results differ from %s:\n got %v\nwant %v",
						desc, wantDesc, results, want)
				}
			}
		}
	}
}

// TestNonblockingPostOrder: many outstanding allreduces complete in post
// order with each round's own inputs — the k-th posted collective on every
// rank is the same operation.
func TestNonblockingPostOrder(t *testing.T) {
	const np, rounds = 4, 16
	err := Run(np, func(c *Comm) error {
		sum := func(a, b int) int { return a + b }
		outs := make([]int, rounds)
		reqs := make([]*Request, rounds)
		for k := 0; k < rounds; k++ {
			reqs[k] = IAllreduce(c, (k+1)*(c.Rank()+1), sum, &outs[k])
		}
		if _, err := Waitall(reqs); err != nil {
			return err
		}
		for k, got := range outs {
			want := (k + 1) * np * (np + 1) / 2
			if got != want {
				return fmt.Errorf("round %d: got %d, want %d", k, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingAbortCompletesWait: a rank failure mid-IAllreduce revokes
// the world, and the survivors' Wait returns the abort instead of hanging.
func TestNonblockingAbortCompletesWait(t *testing.T) {
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			if c.Rank() == 2 {
				return errDeliberate
			}
			var out int
			_, err := IAllreduce(c, 1, func(a, b int) int { return a + b }, &out).Wait()
			return err
		})
	})
	if !errors.Is(err, ErrWorldAborted) || !errors.Is(err, errDeliberate) {
		t.Fatalf("err = %v, want ErrWorldAborted wrapping the cause", err)
	}
}

// TestNonblockingDeadline: a deserting rank trips WithDeadline inside an
// in-flight vector IAllreduce, and the expiry comes back from Wait.
func TestNonblockingDeadline(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			return nil // never posts
		}
		var out []int
		req := IAllreduce(c, make([]int, 4096), CombineSlices[int](Sum), &out)
		_, err := req.Wait()
		return err
	}, WithTopology([]int{0, 0, 1, 1}), WithHierarchy(HierOn), WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("deserter run succeeded")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v does not match ErrDeadlineExceeded", err)
	}
}

// TestNonblockingKillRank: an injected rank death during nonblocking
// collectives surfaces through Wait as the revoke, wrapping ErrRankKilled.
func TestNonblockingKillRank(t *testing.T) {
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 2, Action: FaultKillRank}},
	}
	err := Run(4, func(c *Comm) error {
		sum := func(a, b int) int { return a + b }
		for i := 0; ; i++ {
			var out int
			if _, err := IAllreduce(c, i, sum, &out).Wait(); err != nil {
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

// TestNonblockingOnSplitComm: the progress engine works on derived
// communicators — each Split half runs its own nonblocking allreduce.
func TestNonblockingOnSplitComm(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		half, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		var out int
		if _, err := IAllreduce(half, c.Rank(), func(a, b int) int { return a + b }, &out).Wait(); err != nil {
			return err
		}
		want := 1 // ranks {0,1}
		if c.Rank() >= 2 {
			want = 5 // ranks {2,3}
		}
		if out != want {
			return fmt.Errorf("rank %d: out = %d, want %d", c.Rank(), out, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
