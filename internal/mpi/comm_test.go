package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRunRejectsZeroProcesses(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) succeeded")
	}
}

func TestRunRankAndSize(t *testing.T) {
	for _, np := range []int{1, 2, 4, 9} {
		var mu sync.Mutex
		seen := map[int]bool{}
		err := Run(np, func(c *Comm) error {
			if c.Size() != np {
				return fmt.Errorf("Size() = %d, want %d", c.Size(), np)
			}
			if c.ProcessorName() == "" {
				return errors.New("empty processor name")
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[c.Rank()] {
				return fmt.Errorf("duplicate rank %d", c.Rank())
			}
			seen[c.Rank()] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != np {
			t.Fatalf("np=%d: saw %d distinct ranks", np, len(seen))
		}
	}
}

func TestProcessorNamesOption(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		want := fmt.Sprintf("node%d", c.Rank())
		if got := c.ProcessorName(); got != want {
			return fmt.Errorf("ProcessorName() = %q, want %q", got, want)
		}
		return nil
	}, WithProcessorNames([]string{"node0", "node1", "node2"}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvValue(t *testing.T) {
	type payload struct {
		N    int
		Text string
		Xs   []float64
	}
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, payload{N: 42, Text: "hi", Xs: []float64{1.5, 2.5}})
		}
		var p payload
		st, err := c.Recv(0, 5, &p)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 5 {
			return fmt.Errorf("status = %v", st)
		}
		if p.N != 42 || p.Text != "hi" || len(p.Xs) != 2 || p.Xs[1] != 2.5 {
			return fmt.Errorf("payload = %+v", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	const n = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			var got int
			if _, err := c.Recv(0, 0, &got); err != nil {
				return err
			}
			if got != i {
				return fmt.Errorf("message %d overtaken by %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceReceivesFromEveryone(t *testing.T) {
	const np = 6
	err := Run(np, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 1, c.Rank())
		}
		seen := map[int]bool{}
		for i := 1; i < np; i++ {
			var v int
			st, err := c.Recv(AnySource, 1, &v)
			if err != nil {
				return err
			}
			if st.Source != v {
				return fmt.Errorf("status source %d but payload says %d", st.Source, v)
			}
			seen[v] = true
		}
		if len(seen) != np-1 {
			return fmt.Errorf("received from %d distinct ranks, want %d", len(seen), np-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnyTagMatchesInOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for _, tag := range []int{7, 3, 9} {
				if err := c.Send(1, tag, tag*10); err != nil {
					return err
				}
			}
			return nil
		}
		wantTags := []int{7, 3, 9}
		for _, want := range wantTags {
			var v int
			st, err := c.Recv(0, AnyTag, &v)
			if err != nil {
				return err
			}
			if st.Tag != want || v != want*10 {
				return fmt.Errorf("got tag %d value %d, want tag %d", st.Tag, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectiveReceiveOutOfArrivalOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, "urgent-later"); err != nil {
				return err
			}
			return c.Send(1, 2, "wanted-first")
		}
		var a, b string
		if _, err := c.Recv(0, 2, &a); err != nil {
			return err
		}
		if _, err := c.Recv(0, 1, &b); err != nil {
			return err
		}
		if a != "wanted-first" || b != "urgent-later" {
			return fmt.Errorf("selective receive got %q then %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("send to rank 5 = %v, want ErrInvalidRank", err)
		}
		if err := c.Send(1, -3, 1); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("send with tag -3 = %v, want ErrInvalidTag", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvValidation(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if _, err := c.Recv(3, 0, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("recv from rank 3 = %v, want ErrInvalidRank", err)
		}
		if _, err := c.Recv(0, -7, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("recv with tag -7 = %v, want ErrInvalidTag", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReservedTagsDistinct lists every tag the runtime reserves — the
// receive wildcard, the collectives' -2..-22 block, the hub's control tags
// and the 8-tag band of each of the first 16 windows — and demands that no
// two coincide and none is a user tag.
func TestReservedTagsDistinct(t *testing.T) {
	tags := map[string]int{
		"AnyTag": AnyTag, "tagBarrier": tagBarrier, "tagBcast": tagBcast,
		"tagReduce": tagReduce, "tagScatter": tagScatter, "tagGather": tagGather, "tagScan": tagScan,
		"tagSplit": tagSplit, "tagAll": tagAll, "tagExscan": tagExscan,
		"tagRedScat": tagRedScat, "tagDissem": tagDissem, "tagAllgat": tagAllgat,
		"tagVecRed": tagVecRed, "tagVecAg": tagVecAg, "tagVecBcast": tagVecBcast,
		"tagVecGat": tagVecGat, "tagVecScat": tagVecScat, "tagHier": tagHier,
		"tagA2Av": tagA2Av, "tagA2AvGat": tagA2AvGat, "tagA2AvScat": tagA2AvScat,
		"tagStart": tagStart, "tagDone": tagDone, "tagAbort": tagAbort,
		"tagPing": tagPing, "tagPong": tagPong, "tagFailed": tagFailed,
		"tagAgreeReq": tagAgreeReq, "tagAgreeResp": tagAgreeResp,
		"tagRevoke": tagRevoke, "tagRejoin": tagRejoin,
	}
	for seq := 0; seq < 16; seq++ {
		for k := 0; k < 8; k++ {
			tags[fmt.Sprintf("window %d tag %d", seq, k)] = tagWinBase - 8*seq - k
		}
	}
	owner := make(map[int]string, len(tags))
	for name, tag := range tags {
		if tag >= 0 {
			t.Errorf("%s = %d is a user tag", name, tag)
		}
		if prev, ok := owner[tag]; ok {
			t.Errorf("%s and %s share tag %d", prev, name, tag)
		}
		owner[tag] = name
	}
}

func TestSendrecvRingExchange(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		var fromLeft int
		_, err := c.Sendrecv(right, 0, c.Rank(), left, 0, &fromLeft)
		if err != nil {
			return err
		}
		if fromLeft != left {
			return fmt.Errorf("rank %d received %d from left, want %d", c.Rank(), fromLeft, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeThenRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, []int{1, 2, 3})
		}
		st, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 4 || st.Bytes == 0 {
			return fmt.Errorf("probe status = %v", st)
		}
		var v []int
		if _, err := c.Recv(st.Source, st.Tag, &v); err != nil {
			return err
		}
		if len(v) != 3 {
			return fmt.Errorf("payload = %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			if _, ok := c.Iprobe(AnySource, AnyTag); ok {
				// May legitimately be true if rank 0 was fast, so only the
				// post-barrier check below is authoritative.
				_ = ok
			}
			if err := c.Barrier(); err != nil { // rank 0 sends before barrier
				return err
			}
			st, ok := c.Iprobe(0, 2)
			if !ok {
				return errors.New("Iprobe missed a delivered message")
			}
			if st.Source != 0 || st.Tag != 2 {
				return fmt.Errorf("Iprobe status = %v", st)
			}
			return nil
		}
		if err := c.Send(1, 2, "ping"); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	sentinel := errors.New("deliberate failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("error %q does not identify the failing rank", err)
	}
}

func TestRankPanicBecomesError(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run error = %v, want panic converted to error", err)
	}
}

func TestComputeWithoutGateRunsInline(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		ran := false
		c.Compute(func() { ran = true })
		if !ran {
			return errors.New("Compute did not run fn")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeGateIsApplied(t *testing.T) {
	var mu sync.Mutex
	inGate := 0
	maxInGate := 0
	gate := func(fn func()) {
		mu.Lock()
		inGate++
		if inGate > maxInGate {
			maxInGate = inGate
		}
		mu.Unlock()
		fn()
		mu.Lock()
		inGate--
		mu.Unlock()
	}
	err := Run(4, func(c *Comm) error {
		c.Compute(func() {})
		return nil
	}, WithComputeGate(gate))
	if err != nil {
		t.Fatal(err)
	}
	if maxInGate == 0 {
		t.Fatal("gate never invoked")
	}
}

func TestStatusString(t *testing.T) {
	s := Status{Source: 1, Tag: 2, Bytes: 3}
	if got := s.String(); !strings.Contains(got, "source: 1") {
		t.Fatalf("Status.String() = %q", got)
	}
}
