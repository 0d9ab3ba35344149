package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	const np = 7
	err := Run(np, func(c *Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		wantSize := np / 2
		if color == 0 {
			wantSize = (np + 1) / 2
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d: sub size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// Collectives on the sub-communicator must only see group members.
		all, err := Allgather(sub, c.Rank())
		if err != nil {
			return err
		}
		for i, worldRank := range all {
			if want := 2*i + color; worldRank != want {
				return fmt.Errorf("sub allgather[%d] = %d, want %d", i, worldRank, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrdersByKeyThenRank(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		// Reverse the ordering with descending keys.
		sub, err := c.Split(0, np-c.Rank())
		if err != nil {
			return err
		}
		if want := np - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("world rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	const np = 3
	err := Run(np, func(c *Comm) error {
		color := 0
		if c.Rank() == np-1 {
			color = ColorUndefined
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == np-1 {
			if sub != nil {
				return errors.New("undefined color returned a communicator")
			}
			return nil
		}
		if sub.Size() != np-1 {
			return fmt.Errorf("sub size %d, want %d", sub.Size(), np-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIsolatesMessageNamespaces(t *testing.T) {
	// A message sent on the parent communicator must not be received by a
	// matching Recv on a child, and vice versa.
	err := Run(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 0, "parent"); err != nil {
				return err
			}
			return sub.Send(1, 0, "child")
		}
		var fromChild, fromParent string
		// Receive from the child communicator first: it must see only the
		// child message even though the parent's arrived earlier.
		if _, err := sub.Recv(0, 0, &fromChild); err != nil {
			return err
		}
		if _, err := c.Recv(0, 0, &fromParent); err != nil {
			return err
		}
		if fromChild != "child" || fromParent != "parent" {
			return fmt.Errorf("child=%q parent=%q", fromChild, fromParent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOneColorPreservesGroup(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		d, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			return fmt.Errorf("one-color split rank/size %d/%d, want %d/%d", d.Rank(), d.Size(), c.Rank(), c.Size())
		}
		sum, err := Allreduce(d, 1, Combine[int](Sum))
		if err != nil {
			return err
		}
		if sum != np {
			return fmt.Errorf("allreduce on one-color split = %d", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplits(t *testing.T) {
	const np = 8
	err := Run(np, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size = %d", quarter.Size())
		}
		sum, err := Allreduce(quarter, c.Rank(), Combine[int](Sum))
		if err != nil {
			return err
		}
		// Each quarter holds consecutive world ranks {2k, 2k+1}.
		base := (c.Rank() / 2) * 2
		if want := base + base + 1; sum != want {
			return fmt.Errorf("rank %d quarter sum = %d, want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitExhaustionGuard(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		for i := 0; i < maxSplitsPerComm; i++ {
			if _, err := c.Split(0, c.Rank()); err != nil {
				return fmt.Errorf("split %d failed early: %w", i, err)
			}
		}
		if _, err := c.Split(0, c.Rank()); err == nil {
			return errors.New("split budget exceeded without error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
