package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestLaunchReportsPlatformHostnames(t *testing.T) {
	p := Chameleon(2, 2)
	var mu sync.Mutex
	hosts := map[int]string{}
	err := p.Launch(4, func(c *mpi.Comm) error {
		mu.Lock()
		hosts[c.Rank()] = c.ProcessorName()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{0: "chameleon-node-0", 1: "chameleon-node-0", 2: "chameleon-node-1", 3: "chameleon-node-1"}
	for r, h := range want {
		if hosts[r] != h {
			t.Errorf("rank %d on %q, want %q", r, hosts[r], h)
		}
	}
}

func TestLaunchColabGateSerializesCompute(t *testing.T) {
	p := ColabVM()
	var inside, maxInside atomic.Int64
	err := p.Launch(4, func(c *mpi.Comm) error {
		for i := 0; i < 10; i++ {
			c.Compute(func() {
				n := inside.Add(1)
				for {
					cur := maxInside.Load()
					if n <= cur || maxInside.CompareAndSwap(cur, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				inside.Add(-1)
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInside.Load(); got != 1 {
		t.Fatalf("unicore Colab allowed %d simultaneous computations", got)
	}
}

func TestLaunchMulticoreGateAllowsParallelism(t *testing.T) {
	p := RaspberryPi() // 4 cores
	var inside, maxInside atomic.Int64
	start := make(chan struct{})
	err := p.Launch(4, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			close(start)
		}
		<-start
		c.Compute(func() {
			n := inside.Add(1)
			for {
				cur := maxInside.Load()
				if n <= cur || maxInside.CompareAndSwap(cur, n) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			inside.Add(-1)
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInside.Load(); got < 2 {
		t.Fatalf("4-core Pi never overlapped computations (max %d)", got)
	}
}

func TestLaunchRejectsZeroProcs(t *testing.T) {
	if err := ColabVM().Launch(0, nil); err == nil {
		t.Fatal("Launch(0) succeeded")
	}
}

func TestLaunchMessagePassingStillCorrectWhenOversubscribed(t *testing.T) {
	// The paper's core claim for Colab: patternlets remain *correct* with
	// np=4 on one core.
	p := ColabVM()
	err := p.Launch(4, func(c *mpi.Comm) error {
		sum, err := mpi.Allreduce(c, c.Rank()+1, mpi.Combine[int](mpi.Sum))
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("allreduce = %d", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoreGateCapacity(t *testing.T) {
	g := NewCoreGate(3)
	if g.Cores() != 3 {
		t.Fatalf("Cores() = %d", g.Cores())
	}
	if NewCoreGate(0).Cores() != 1 {
		t.Fatal("zero-core gate not clamped to 1")
	}
	ran := false
	g.Run(func() { ran = true })
	if !ran {
		t.Fatal("gate did not run fn")
	}
}

func TestInterNodeLatencyApplied(t *testing.T) {
	fast := Chameleon(2, 1)
	fast.InterNodeLatency = 0
	slow := Chameleon(2, 1)
	slow.InterNodeLatency = 3 * time.Millisecond

	const msgs = 20
	pingpong := func(c *mpi.Comm) error {
		// Ranks 0 and 1 are on different nodes (block placement, 2 nodes).
		for i := 0; i < msgs; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, nil); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 0, nil); err != nil {
					return err
				}
				if err := c.Send(0, 0, i); err != nil {
					return err
				}
			}
		}
		return nil
	}

	t0 := time.Now()
	if err := fast.Launch(2, pingpong); err != nil {
		t.Fatal(err)
	}
	fastTime := time.Since(t0)

	t0 = time.Now()
	if err := slow.Launch(2, pingpong); err != nil {
		t.Fatal(err)
	}
	slowTime := time.Since(t0)

	// 2*msgs messages × 3ms ≥ 120ms of injected latency.
	if slowTime < fastTime+50*time.Millisecond {
		t.Fatalf("latency model had no effect: fast %v, slow %v", fastTime, slowTime)
	}
}

// TestLaunchPublishesTopology: a platform launch places ranks with
// WithTopology, so hierarchical and flat collectives both run — and agree —
// on a modeled multi-node platform, with extra options reaching the runtime.
func TestLaunchPublishesTopology(t *testing.T) {
	const np = 4
	plat := Chameleon(2, 2)
	body := func(results []int, mu *sync.Mutex) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			v := make([]int, 2000)
			for i := range v {
				v[i] = c.Rank() + i
			}
			out, err := mpi.AllreduceSlice(c, v, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = out[1]
			mu.Unlock()
			return nil
		}
	}
	want := np*1 + 0 + 1 + 2 + 3 // element 1: sum over ranks of (rank + 1)
	for _, mode := range []mpi.HierMode{mpi.HierAuto, mpi.HierOff} {
		results := make([]int, np)
		var mu sync.Mutex
		if err := plat.Launch(np, body(results, &mu), mpi.WithHierarchy(mode)); err != nil {
			t.Fatalf("hier=%v: %v", mode, err)
		}
		for r, got := range results {
			if got != want {
				t.Fatalf("hier=%v rank %d: element 1 = %d, want %d", mode, r, got, want)
			}
		}
	}
}

// linkElapsed launches four ranks on a two-node platform with 1 MB/s links
// and no latency — ranks 0 and 1 on node 0, ranks 2 and 3 on node 1 — and
// times, between two barriers, the transfers given as {src, dst, bytes}.
func linkElapsed(t *testing.T, transfers [][3]int) time.Duration {
	t.Helper()
	p := Chameleon(2, 2)
	p.InterNodeLatency, p.InterNodeBandwidth = 0, 1e6
	var elapsed time.Duration
	err := p.Launch(4, func(c *mpi.Comm) error {
		payloads := make([][]byte, len(transfers))
		for i, tr := range transfers {
			if c.Rank() == tr[0] {
				payloads[i] = make([]byte, tr[2])
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i, tr := range transfers {
			if c.Rank() == tr[0] {
				if err := c.Send(tr[1], i, payloads[i]); err != nil {
					return err
				}
			}
		}
		for i, tr := range transfers {
			if c.Rank() == tr[1] {
				if _, err := c.Recv(tr[0], i, nil); err != nil {
					return err
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// TestLinkModelChargesBandwidth: on a platform with finite inter-node
// bandwidth, a cross-node message pays bytes/bandwidth; intra-node traffic
// is free.
func TestLinkModelChargesBandwidth(t *testing.T) {
	if got := linkElapsed(t, [][3]int{{0, 2, 100_000}}); got < 80*time.Millisecond {
		t.Fatalf("cross-node 100 kB took %v, want ~100ms at 1 MB/s", got)
	}
	// Same node: free, where the link would charge 1 s.
	if got := linkElapsed(t, [][3]int{{0, 1, 1_000_000}}); got > 20*time.Millisecond {
		t.Fatalf("intra-node 1 MB took %v, want ~0", got)
	}
}

// TestLinkModelContention: two concurrent transfers over the same directed
// node pair serialize on the link, while transfers on distinct links
// overlap.
func TestLinkModelContention(t *testing.T) {
	// Same link (node 0 → node 1) from two rank pairs: ~50ms + ~50ms serial.
	if got := linkElapsed(t, [][3]int{{0, 2, 50_000}, {1, 3, 50_000}}); got < 85*time.Millisecond {
		t.Fatalf("contended transfers took %v, want ~100ms serialized", got)
	}
	// Opposite directions are distinct links: ~50ms total.
	if got := linkElapsed(t, [][3]int{{0, 2, 50_000}, {2, 0, 50_000}}); got > 90*time.Millisecond {
		t.Fatalf("independent links took %v, want ~50ms overlapped", got)
	}
}
