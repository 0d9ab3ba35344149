package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// The irregular-exchange suite. Every check is analytic — element values
// encode (origin, destination, index), so a block landing in the wrong slot,
// the wrong order, or the wrong rank is caught by value, not just by shape —
// and the same checks run across every transport configuration and count
// pattern, including the all-zero exchange that must move no frames at all.

// a2avVal is the self-describing element: who sent it, to whom, at which
// position within the block.
func a2avVal(origin, dest, i int) int64 {
	return int64(origin)*1_000_000 + int64(dest)*1000 + int64(i)
}

// a2avPatterns enumerates the count shapes: uniform, skewed (every pair
// different, some zero), sparse (one destination per origin), and all-zero.
var a2avPatterns = []struct {
	name   string
	counts func(origin, dest, np int) int
}{
	{"uniform", func(origin, dest, np int) int { return 3 }},
	{"skewed", func(origin, dest, np int) int { return (origin*7 + dest*3) % 5 }},
	{"sparse", func(origin, dest, np int) int {
		if dest == (origin+1)%np {
			return 4
		}
		return 0
	}},
	{"zeros", func(origin, dest, np int) int { return 0 }},
}

// checkAlltoallv drives one full exchange — count prologue, allocating
// exchange, then a second in-place exchange into the reused buffer (the
// steady-state shape) — and verifies every element analytically.
func checkAlltoallv(c *Comm, counts func(origin, dest int) int) error {
	np, rank := c.Size(), c.Rank()
	sendCounts := make([]int, np)
	for d := range sendCounts {
		sendCounts[d] = counts(rank, d)
	}
	sdis, stot := displs(sendCounts)
	send := make([]int64, stot)
	for d := 0; d < np; d++ {
		for i := 0; i < sendCounts[d]; i++ {
			send[sdis[d]+i] = a2avVal(rank, d, i)
		}
	}

	recvCounts, err := AlltoallCounts(c, sendCounts)
	if err != nil {
		return fmt.Errorf("AlltoallCounts: %w", err)
	}
	for o := range recvCounts {
		if want := counts(o, rank); recvCounts[o] != want {
			return fmt.Errorf("rank %d recvCounts[%d] = %d, want %d", rank, o, recvCounts[o], want)
		}
	}

	recv, err := AlltoallvSlice(c, send, sendCounts, recvCounts)
	if err != nil {
		return fmt.Errorf("AlltoallvSlice: %w", err)
	}
	rdis, rtot := displs(recvCounts)
	if len(recv) != rtot {
		return fmt.Errorf("rank %d: %d elements received, counts say %d", rank, len(recv), rtot)
	}
	for o := 0; o < np; o++ {
		for i := 0; i < recvCounts[o]; i++ {
			if got, want := recv[rdis[o]+i], a2avVal(o, rank, i); got != want {
				return fmt.Errorf("rank %d block from %d element %d = %d, want %d", rank, o, i, got, want)
			}
		}
	}

	// Steady state: same counts, fresh values, caller-owned receive buffer.
	const shift = 1_000_000_000
	for i := range send {
		send[i] += shift
	}
	if err := AlltoallvInto(c, send, sendCounts, recv, recvCounts); err != nil {
		return fmt.Errorf("AlltoallvInto: %w", err)
	}
	for o := 0; o < np; o++ {
		for i := 0; i < recvCounts[o]; i++ {
			if got, want := recv[rdis[o]+i], a2avVal(o, rank, i)+shift; got != want {
				return fmt.Errorf("rank %d reused block from %d element %d = %d, want %d", rank, o, i, got, want)
			}
		}
	}
	return nil
}

func TestAlltoallvParity(t *testing.T) {
	for name, runner := range parityRunners() {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			if name == "tcp" {
				t.Parallel()
			}
			for _, np := range []int{1, 2, 3, 4, 8} {
				for _, p := range a2avPatterns {
					p := p
					if err := runner(np, func(c *Comm) error {
						return checkAlltoallv(c, func(o, d int) int { return p.counts(o, d, np) })
					}); err != nil {
						t.Fatalf("np=%d pattern=%s: %v", np, p.name, err)
					}
				}
			}
		})
	}
}

// TestAlltoallvGobElements: non-raw element types ride the gob path through
// the same exchange — the primitive is generic, not numeric-only.
func TestAlltoallvGobElements(t *testing.T) {
	const np = 3
	err := Run(np, func(c *Comm) error {
		sendCounts := make([]int, np)
		for d := range sendCounts {
			sendCounts[d] = d + 1
		}
		sdis, stot := displs(sendCounts)
		send := make([]string, stot)
		for d := 0; d < np; d++ {
			for i := 0; i < sendCounts[d]; i++ {
				send[sdis[d]+i] = fmt.Sprintf("%d->%d#%d", c.Rank(), d, i)
			}
		}
		recvCounts, err := AlltoallCounts(c, sendCounts)
		if err != nil {
			return err
		}
		recv, err := AlltoallvSlice(c, send, sendCounts, recvCounts)
		if err != nil {
			return err
		}
		rdis, _ := displs(recvCounts)
		for o := 0; o < np; o++ {
			for i := 0; i < recvCounts[o]; i++ {
				if got, want := recv[rdis[o]+i], fmt.Sprintf("%d->%d#%d", o, c.Rank(), i); got != want {
					return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvHier: the two-level schedule under forced topologies agrees
// with the analytic expectation (and therefore with the flat schedule) for
// every count pattern, on every topology shape hierTopologies generates —
// including the uneven one where one node holds a single rank.
func TestAlltoallvHier(t *testing.T) {
	launchers := []parityMode{
		{name: "local", run: Run},
		{name: "tcp", run: RunTCP},
	}
	if shmSupported {
		launchers = append(launchers, parityMode{name: "shm", run: RunShm})
	}
	for _, np := range []int{4, 8} {
		for _, topo := range hierTopologies(np) {
			for _, l := range launchers {
				for _, p := range a2avPatterns {
					desc := fmt.Sprintf("np=%d topo=%v %s pattern=%s", np, topo, l.name, p.name)
					opts := append([]Option{WithTopology(topo), WithHierarchy(HierOn)}, l.opts...)
					err := l.run(np, func(c *Comm) error {
						return checkAlltoallv(c, func(o, d int) int { return p.counts(o, d, np) })
					}, opts...)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
				}
			}
		}
	}
}

// TestAlltoallvValidation: malformed count vectors are rejected before any
// frame moves.
func TestAlltoallvValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		send := make([]int64, 4)
		good := []int{2, 2}
		if _, err := AlltoallvSlice(c, send, []int{4}, good); err == nil {
			return fmt.Errorf("short sendCounts accepted")
		}
		if _, err := AlltoallvSlice(c, send, good, []int{1, 1, 1}); err == nil {
			return fmt.Errorf("long recvCounts accepted")
		}
		if _, err := AlltoallvSlice(c, send, []int{3, 3}, good); err == nil {
			return fmt.Errorf("send count sum mismatch accepted")
		}
		if err := AlltoallvInto(c, send, good, make([]int64, 3), good); err == nil {
			return fmt.Errorf("recv buffer size mismatch accepted")
		}
		// Negative counts whose sums still match the buffers: refused by name,
		// not sliced with (which panicked the rank).
		if _, err := AlltoallvSlice(c, send[:2], []int{-1, 3}, good); err == nil || !strings.Contains(err.Error(), "sendCounts[0] = -1") {
			return fmt.Errorf("negative send count: err = %v", err)
		}
		if err := AlltoallvInto(c, send, good, make([]int64, 2), []int{3, -1}); err == nil || !strings.Contains(err.Error(), "recvCounts[1] = -1") {
			return fmt.Errorf("negative recv count: err = %v", err)
		}
		if _, err := AlltoallCounts(c, []int{1}); err == nil {
			return fmt.Errorf("short AlltoallCounts vector accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillRankMidAlltoallv: the victim dies on its first data-block send;
// every survivor's exchange must surface the retryable *RankFailedError —
// each of them is owed a block the victim will never send. All transports.
func TestKillRankMidAlltoallv(t *testing.T) {
	const np = 4
	const victim = 1
	plan := FaultPlan{
		Seed:  13,
		Rules: []FaultRule{{Src: victim, Dst: AnySource, Tag: tagA2Av, Action: FaultKillRank}},
	}
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			observed := map[int]error{}
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(np, func(c *Comm) error {
					sendCounts := make([]int, np)
					for d := range sendCounts {
						sendCounts[d] = 8 // all pairs exchange: everyone waits on the victim
					}
					_, stot := displs(sendCounts)
					send := make([]int64, stot)
					_, aerr := AlltoallvSlice(c, send, sendCounts, sendCounts)
					if c.Rank() == victim {
						if aerr == nil {
							return fmt.Errorf("victim: exchange succeeded after its own kill")
						}
						return aerr
					}
					mu.Lock()
					observed[c.Rank()] = aerr
					mu.Unlock()
					if aerr == nil {
						return fmt.Errorf("survivor %d: exchange succeeded with a dead peer", c.Rank())
					}
					return c.revoke()
				}, WithFaults(plan), WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
			if len(observed) != np-1 {
				t.Fatalf("recorded %d survivor outcomes, want %d", len(observed), np-1)
			}
			for rank, aerr := range observed {
				var rfe *RankFailedError
				if !errors.As(aerr, &rfe) {
					t.Errorf("survivor %d: want *RankFailedError, got %v", rank, aerr)
				}
			}
		})
	}
}

// TestAlltoallvDeadline: one dropped data block stalls its receiver forever;
// WithDeadline converts the stall into the world's *DeadlineError naming the
// Recv under the exchange's tag.
func TestAlltoallvDeadline(t *testing.T) {
	plan := FaultPlan{
		Rules: []FaultRule{{Src: 1, Dst: 0, Tag: tagA2Av, Count: 1, Action: FaultDrop}},
	}
	for _, tc := range []struct {
		name string
		run  func(np int, main func(c *Comm) error, opts ...Option) error
	}{
		{"local", Run},
		{"tcp", RunTCP},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := runWithWatchdog(t, 20*time.Second, func() error {
				return tc.run(2, func(c *Comm) error {
					counts := []int{4, 4}
					send := make([]int64, 8)
					_, aerr := AlltoallvSlice(c, send, counts, counts)
					return aerr
				}, WithFaults(plan), WithDeadline(150*time.Millisecond))
			})
			var derr *DeadlineError
			if !errors.As(err, &derr) {
				t.Fatalf("err = %v, want a *DeadlineError in the chain", err)
			}
			found := false
			for _, op := range derr.Blocked {
				if op.Op == "Recv" && op.Tag == tagA2Av {
					found = true
				}
			}
			if !found {
				t.Fatalf("blocked snapshot %v names no Recv under tagA2Av", derr.Blocked)
			}
		})
	}
}
