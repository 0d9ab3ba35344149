package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDisseminationBarrier(t *testing.T) {
	for _, np := range worldSizes {
		var arrived atomic.Int64
		err := Run(np, func(c *Comm) error {
			arrived.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := arrived.Load(); got != int64(np) {
				return fmt.Errorf("left dissemination barrier with %d/%d arrived", got, np)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

func TestConsecutiveDisseminationBarriers(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
