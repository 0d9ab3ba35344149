package mpi

import (
	"math/bits"
	"strings"
	"testing"
)

// countMessages runs body on np ranks with a counter installed and returns
// the counter.
func countMessages(t *testing.T, np int, body func(c *Comm) error) *MessageCounter {
	t.Helper()
	mc := NewMessageCounter()
	if err := Run(np, body, WithCounter(mc)); err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestCounterPointToPoint(t *testing.T) {
	mc := countMessages(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
			}
		} else {
			for i := 0; i < 5; i++ {
				if _, err := c.Recv(0, 0, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if mc.Total() != 5 {
		t.Fatalf("total = %d, want 5", mc.Total())
	}
	if mc.Pair(0, 1) != 5 || mc.Pair(1, 0) != 0 {
		t.Fatalf("pairs: 0->1=%d 1->0=%d", mc.Pair(0, 1), mc.Pair(1, 0))
	}
	if mc.Bytes() == 0 {
		t.Fatal("no payload bytes recorded")
	}
}

// TestCollectiveMessageComplexity pins the algorithms' message counts —
// the quantities the ablation benchmarks trade off.
func TestCollectiveMessageComplexity(t *testing.T) {
	for _, np := range []int{2, 4, 7, 8} {
		// Linear reduce: n-1 messages to the root.
		mc := countMessages(t, np, func(c *Comm) error {
			_, err := ReduceWith(c, c.Rank(), Combine[int](Sum), 0, ReduceLinear)
			return err
		})
		if got, want := mc.Total(), np-1; got != want {
			t.Errorf("np=%d linear reduce: %d messages, want %d", np, got, want)
		}

		// Tree reduce: also n-1 messages (one per non-root node), but
		// spread over log n rounds.
		mc = countMessages(t, np, func(c *Comm) error {
			_, err := ReduceWith(c, c.Rank(), Combine[int](Sum), 0, ReduceTree)
			return err
		})
		if got, want := mc.Total(), np-1; got != want {
			t.Errorf("np=%d tree reduce: %d messages, want %d", np, got, want)
		}

		// Bcast tree: n-1 messages.
		mc = countMessages(t, np, func(c *Comm) error {
			_, err := Bcast(c, 1, 0)
			return err
		})
		if got, want := mc.Total(), np-1; got != want {
			t.Errorf("np=%d bcast: %d messages, want %d", np, got, want)
		}

		// Linear barrier: 2(n-1) messages.
		mc = countMessages(t, np, func(c *Comm) error {
			return c.BarrierWith(BarrierLinear)
		})
		if got, want := mc.Total(), 2*(np-1); got != want {
			t.Errorf("np=%d linear barrier: %d messages, want %d", np, got, want)
		}

		// Dissemination barrier (the Barrier default): n * ceil(log2 n)
		// messages.
		mc = countMessages(t, np, func(c *Comm) error {
			return c.Barrier()
		})
		rounds := bits.Len(uint(np - 1)) // ceil(log2 np)
		if got, want := mc.Total(), np*rounds; got != want {
			t.Errorf("np=%d dissemination barrier: %d messages, want %d", np, got, want)
		}

		// Ring allgather: n(n-1) messages, one per link per step.
		mc = countMessages(t, np, func(c *Comm) error {
			_, err := Allgather(c, c.Rank())
			return err
		})
		if got, want := mc.Total(), np*(np-1); got != want {
			t.Errorf("np=%d ring allgather: %d messages, want %d", np, got, want)
		}

		// Alltoall: n(n-1) messages.
		mc = countMessages(t, np, func(c *Comm) error {
			items := make([]int, np)
			_, err := Alltoall(c, items)
			return err
		})
		if got, want := mc.Total(), np*(np-1); got != want {
			t.Errorf("np=%d alltoall: %d messages, want %d", np, got, want)
		}
	}
}

func TestCounterTagBreakdown(t *testing.T) {
	mc := countMessages(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return c.Send(1, 9, "x")
		}
		if c.Rank() == 1 {
			_, err := c.Recv(0, 9, nil)
			return err
		}
		return nil
	})
	if mc.Tag(9) != 1 {
		t.Fatalf("tag 9 count = %d", mc.Tag(9))
	}
	if mc.Tag(tagDissem) != 8 { // np * ceil(log2 np) dissemination tokens
		t.Fatalf("barrier tag count = %d", mc.Tag(tagDissem))
	}
}

// TestBarrierRoundsScaleLogarithmically pins Barrier's O(log n) critical
// path structurally, not by timing: the dissemination barrier performs
// disseminationRounds(n) = ceil(log2 n) rounds, every rank sends exactly
// one message per round (asserted via the per-pair counter), and the round
// count grows by at most one when the world doubles.
func TestBarrierRoundsScaleLogarithmically(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8, 16, 32, 64} {
		rounds := disseminationRounds(np)
		if want := bits.Len(uint(np - 1)); rounds != want {
			t.Fatalf("np=%d: disseminationRounds = %d, want ceil(log2 n) = %d", np, rounds, want)
		}
		mc := countMessages(t, np, func(c *Comm) error {
			return c.Barrier()
		})
		// One send per rank per round: the rounds ARE the per-rank message
		// count, so O(log n) rounds is equivalent to this assertion.
		for src := 0; src < np; src++ {
			sent := 0
			for dst := 0; dst < np; dst++ {
				sent += mc.Pair(src, dst)
			}
			if sent != rounds {
				t.Errorf("np=%d: rank %d sent %d messages, want %d (one per round)", np, src, sent, rounds)
			}
		}
	}
	// Doubling the world adds exactly one round — the logarithmic signature
	// (a linear barrier would double its rounds instead).
	for np := 2; np <= 512; np *= 2 {
		if got, want := disseminationRounds(2*np), disseminationRounds(np)+1; got != want {
			t.Fatalf("rounds(%d) = %d, want rounds(%d)+1 = %d", 2*np, got, np, want)
		}
	}
}

func TestCounterResetAndString(t *testing.T) {
	mc := countMessages(t, 2, func(c *Comm) error {
		return c.Barrier()
	})
	s := mc.String()
	if !strings.Contains(s, "messages") || !strings.Contains(s, "->") {
		t.Fatalf("String() = %q", s)
	}
	mc.Reset()
	if mc.Total() != 0 || mc.Bytes() != 0 || mc.Pair(0, 1) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestCounterOnTCPTransport(t *testing.T) {
	mc := NewMessageCounter()
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, "over tcp")
		}
		_, err := c.Recv(0, 0, nil)
		return err
	}, WithCounter(mc))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Total() != 1 {
		t.Fatalf("tcp counter total = %d", mc.Total())
	}
}

func TestScanMessageCount(t *testing.T) {
	// Linear chain: n-1 messages.
	for _, np := range []int{1, 3, 6} {
		mc := countMessages(t, np, func(c *Comm) error {
			_, err := Scan(c, 1, Combine[int](Sum))
			return err
		})
		if got := mc.Total(); got != np-1 {
			t.Errorf("np=%d scan: %d messages, want %d", np, got, np-1)
		}
	}
}

// TestHierAllreduceInterNodeMessageCount counts what the two-level schedule
// is for: on 2 nodes of 4 ranks a 1 MiB AllreduceSlice crosses the inter-node
// link 4 times (the two leaders' reduce-scatter and allgather, one exchange
// each), where the flat halving/doubling schedule crosses it 16 times (every
// rank's distance-4 partner is on the other node, in both phases).
func TestHierAllreduceInterNodeMessageCount(t *testing.T) {
	nodeOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	interNode := func(mode HierMode) int {
		mc := NewMessageCounter()
		err := Run(len(nodeOf), func(c *Comm) error {
			_, err := AllreduceSliceOp(c, make([]float64, 1<<17), Sum)
			return err
		}, WithCounter(mc), WithTopology(nodeOf), WithHierarchy(mode))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for src, sn := range nodeOf {
			for dst, dn := range nodeOf {
				if sn != dn {
					n += mc.Pair(src, dst)
				}
			}
		}
		return n
	}
	if twoLevel, flat := interNode(HierAuto), interNode(HierOff); twoLevel != 4 || flat != 16 {
		t.Errorf("1 MiB allreduce on 2 nodes x 4 ranks: %d inter-node messages two-level, %d flat; want 4 and 16", twoLevel, flat)
	}
}

// TestAlltoallvMessagesPerRank: the irregular exchange coalesces each
// destination's block into one message, so at np = 8 a rank sends at most
// np - 1 of them whether its blocks hold one element, thousands or none.
func TestAlltoallvMessagesPerRank(t *testing.T) {
	const np = 8
	for name, count := range map[string]func(src, dst int) int{
		"one element each": func(src, dst int) int { return 1 },
		"skewed":           func(src, dst int) int { return (src*7 + dst*13) % 5 * 1000 },
		"rank 0 gets most": func(src, dst int) int { return 1 + 4000*((np-dst)/np) },
	} {
		mc := countMessages(t, np, func(c *Comm) error {
			sendCounts, recvCounts := make([]int, np), make([]int, np)
			total := 0
			for r := 0; r < np; r++ {
				sendCounts[r], recvCounts[r] = count(c.Rank(), r), count(r, c.Rank())
				total += sendCounts[r]
			}
			_, err := AlltoallvSlice(c, make([]int32, total), sendCounts, recvCounts)
			return err
		})
		for src := 0; src < np; src++ {
			sent := 0
			for dst := 0; dst < np; dst++ {
				sent += mc.Pair(src, dst)
			}
			if sent > np-1 {
				t.Errorf("%s: rank %d sent %d messages, want at most %d", name, src, sent, np-1)
			}
		}
	}
}

// TestWinPutEpochMessageCount: where a window is memory both sides can reach
// (in process, in the shm segment) a Put is a copy, not a message — an epoch
// of 128 Puts of 64 KiB sends exactly what an empty epoch sends, its closing
// Fence — where the two-sided formulation of the same delivery sends 128 more.
func TestWinPutEpochMessageCount(t *testing.T) {
	runners := map[string]func(int, func(*Comm) error, ...Option) error{"local": Run}
	if shmSupported {
		runners["shm"] = RunShm
	}
	for name, run := range runners {
		epoch := func(puts int) int {
			mc := NewMessageCounter()
			err := run(2, func(c *Comm) error {
				w, err := WinCreate[float64](c, 8<<10)
				if err != nil {
					return err
				}
				defer w.Free()
				if c.Rank() == 0 {
					block := make([]float64, 8<<10)
					for i := 0; i < puts; i++ {
						if err := w.Put(1, 0, block); err != nil {
							return err
						}
					}
				}
				return w.Fence()
			}, WithCounter(mc))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return mc.Total()
		}
		if empty, full := epoch(0), epoch(128); full != empty {
			t.Errorf("%s: an epoch of 128 Puts sent %d messages, an empty one %d", name, full, empty)
		}
	}
}
