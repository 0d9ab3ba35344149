package mpi

import (
	"fmt"
	"testing"
	"time"
)

// TestLatencyPreservesPerPairFIFO pins the per-pair FIFO guarantee under a
// modeled network. Rank 0 interleaves sequence-numbered sends to rank 1,
// across a slow inter-node link, and to rank 2, on its own node; each
// receiver must still observe its own stream strictly in send order, with
// wildcard receives. Rank 2's later messages may overtake rank 1's earlier
// ones in global time, which is allowed — but within a pair, order must
// hold.
func TestLatencyPreservesPerPairFIFO(t *testing.T) {
	const msgs = 15
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
				if err := c.Send(2, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			var got int
			if _, err := c.Recv(AnySource, AnyTag, &got); err != nil {
				return err
			}
			if got != i {
				return fmt.Errorf("rank %d: message %d arrived with sequence %d (reordered)", c.Rank(), i, got)
			}
		}
		return nil
	}, WithTopology([]int{0, 1, 0}), WithNetwork(2*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
}

// TestNetworkPricingRule reads no clock: each row sends frames at given
// offsets from a fixed instant across the placement [0 0 1 1] and checks
// the due time the modeled network gives each one (free: delivered at
// once). Links have 10 ms latency and 1 MB/s, so 1000 bytes take 1 ms.
func TestNetworkPricingRule(t *testing.T) {
	const (
		ms   = time.Millisecond
		us   = time.Microsecond
		lat  = 10 * ms
		free = time.Duration(-1)
	)
	type send struct {
		src, dst, bytes int
		at, due         time.Duration
	}
	burst := func(k int, gap time.Duration) []send {
		var s []send
		for i := 0; i < k; i++ {
			at := time.Duration(i) * gap
			s = append(s, send{0, 2, 8, at, at + 8*us + lat})
		}
		return s
	}
	rows := []struct {
		name  string
		sends []send
	}{
		{"intra-node frames are free", []send{{0, 1, 1 << 20, 0, free}, {3, 2, 1 << 20, 0, free}}},
		{"an inter-node frame costs bytes/bandwidth + latency", []send{{0, 2, 1000, 0, 1*ms + lat}, {1, 3, 0, 50 * ms, 50*ms + lat}}},
		{"two frames on one link serialize their bytes", []send{{0, 2, 1000, 0, 1*ms + lat}, {1, 3, 1000, 0, 2*ms + lat}, {0, 3, 1000, 5 * ms, 6*ms + lat}}},
		{"opposite directions are independent links", []send{{0, 2, 1000, 0, 1*ms + lat}, {2, 0, 1000, 0, 1*ms + lat}, {3, 1, 1000, 0, 2*ms + lat}}},
		{"each frame of a burst is due about latency after it is sent", burst(20, 100*us)},
	}
	t0 := time.Unix(0, 0)
	for _, row := range rows {
		tr := newLocalTransport(4)
		tr.nodeOf, tr.latency, tr.bandwidth = []int{0, 0, 1, 1}, lat, 1e6
		for i, s := range row.sends {
			got := free
			if l := tr.link(s.src, s.dst); l != nil {
				l.mu.Lock()
				got = l.price(t0.Add(s.at), s.bytes).Sub(t0)
				l.mu.Unlock()
			}
			if got != s.due {
				t.Errorf("%s: send %d (%d->%d, %d B at %v) due at %v, want %v", row.name, i, s.src, s.dst, s.bytes, s.at, got, s.due)
			}
		}
		tr.Close()
	}
}

// TestNetworkBurstOverlapsLatency: 20 back-to-back frames across one link
// with 10 ms latency all arrive about 10 ms after the first was sent — the
// link's frames in flight overlap their latency instead of paying it one
// after another.
func TestNetworkBurstOverlapsLatency(t *testing.T) {
	const (
		msgs = 20
		lat  = 10 * time.Millisecond
	)
	var sent, landed time.Time
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			sent = time.Now()
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		landed = time.Now()
		return nil
	}, WithTopology([]int{0, 1}), WithNetwork(lat, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := landed.Sub(sent); got < lat || got >= 10*lat {
		t.Fatalf("last of %d frames landed %v after the first was sent, want within [%v, %v)", msgs, got, lat, 10*lat)
	}
}

// TestIndexedMailboxMixedExactAndWildcard stresses the mailbox's exact-key
// index against concurrent wildcard receives: frames under many (src, tag)
// keys, drained by a mix of exact and wildcard receives, must each be
// delivered exactly once and in per-key order.
func TestIndexedMailboxMixedExactAndWildcard(t *testing.T) {
	const perTag = 10
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < perTag; i++ {
				for tag := 0; tag < 3; tag++ {
					if err := c.Send(0, tag, c.Rank()*1000+tag*100+i); err != nil {
						return err
					}
				}
			}
			return nil
		}
		// Exact receives drain the (src=1, tag=0) stream through the index
		// while frames under five other keys pile up around it; the
		// wildcard drain then takes the backlog strictly by arrival order
		// per key. (Wildcards must come second: a wildcard receive may
		// legally consume any stream, including the exact one.)
		seen := map[int]int{} // (src*10+tag) -> next expected i
		for i := 0; i < perTag; i++ {
			var got int
			if _, err := c.Recv(1, 0, &got); err != nil {
				return err
			}
			if got != 1000+i {
				return fmt.Errorf("exact stream: got %d, want %d", got, 1000+i)
			}
		}
		seen[10] = perTag
		for n := 0; n < 5*perTag; n++ {
			var got int
			st, err := c.Recv(AnySource, AnyTag, &got)
			if err != nil {
				return err
			}
			key := st.Source*10 + st.Tag
			wantI := seen[key]
			if got != st.Source*1000+st.Tag*100+wantI {
				return fmt.Errorf("stream (src=%d,tag=%d): got %d, want sequence %d", st.Source, st.Tag, got, wantI)
			}
			seen[key]++
		}
		for key, n := range seen {
			if n != perTag {
				return fmt.Errorf("stream %d delivered %d messages, want %d", key, n, perTag)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
