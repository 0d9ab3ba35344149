package mpi

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSendToSelf(t *testing.T) {
	// MPI permits self-sends with buffered semantics; so does this runtime.
	err := Run(1, func(c *Comm) error {
		if err := c.Send(0, 3, "note to self"); err != nil {
			return err
		}
		var got string
		st, err := c.Recv(0, 3, &got)
		if err != nil {
			return err
		}
		if got != "note to self" || st.Source != 0 {
			return fmt.Errorf("got %q from %v", got, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTypeMismatchSurfacesDecodeError(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, "definitely a string")
		}
		var wrong struct{ X, Y int }
		_, err := c.Recv(0, 0, &wrong)
		if err == nil {
			return fmt.Errorf("string decoded into struct without error")
		}
		if !strings.Contains(err.Error(), "decoding message payload") {
			return fmt.Errorf("unexpected error %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNilPayloadRoundTrip(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			var empty []int
			return c.Send(1, 0, empty)
		}
		var got []int
		if _, err := c.Recv(0, 0, &got); err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithNetworkOption(t *testing.T) {
	const msgs = 10
	lat := 2 * time.Millisecond
	start := time.Now()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, nil); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
			if err := c.Send(0, 0, i); err != nil {
				return err
			}
		}
		return nil
	}, WithTopology([]int{0, 1}), WithNetwork(lat, 0))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*msgs*lat {
		t.Fatalf("network option ignored: %v elapsed, want >= %v", elapsed, 2*msgs*lat)
	}
}

func TestManyRanksSmoke(t *testing.T) {
	// The St. Olaf scale: 64 ranks doing a collective round trip.
	const np = 64
	err := Run(np, func(c *Comm) error {
		sum, err := Allreduce(c, 1, Combine[int](Sum))
		if err != nil {
			return err
		}
		if sum != np {
			return fmt.Errorf("allreduce = %d", sum)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLowestFailingRankWins(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() >= 2 {
			return fmt.Errorf("failure on rank %d", c.Rank())
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("err = %v, want the lowest failing rank reported", err)
	}
}

func TestWtimeAdvances(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		t0 := c.Wtime()
		if t0 < 0 {
			return fmt.Errorf("Wtime negative: %v", t0)
		}
		time.Sleep(5 * time.Millisecond)
		if t1 := c.Wtime(); t1 <= t0 {
			return fmt.Errorf("Wtime did not advance: %v -> %v", t0, t1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
