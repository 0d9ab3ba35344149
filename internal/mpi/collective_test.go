package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

var worldSizes = []int{1, 2, 3, 4, 7, 8}

func TestBarrierAllArriveBeforeAnyLeaves(t *testing.T) {
	for _, np := range worldSizes {
		var arrived atomic.Int64
		err := Run(np, func(c *Comm) error {
			arrived.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := arrived.Load(); got != int64(np) {
				return fmt.Errorf("left barrier with only %d/%d arrived", got, np)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, np := range worldSizes {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				v := -1
				if c.Rank() == root {
					v = 1000 + root
				}
				got, err := Bcast(c, v, root)
				if err != nil {
					return err
				}
				if got != 1000+root {
					return fmt.Errorf("rank %d got %d from root %d", c.Rank(), got, root)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("np=%d root=%d: %v", np, root, err)
			}
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := Bcast(c, 0, 9)
		if !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Bcast root 9 = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastStruct(t *testing.T) {
	type conf struct {
		Trials int
		Probs  []float64
	}
	err := Run(4, func(c *Comm) error {
		var v conf
		if c.Rank() == 0 {
			v = conf{Trials: 500, Probs: []float64{0.1, 0.2}}
		}
		got, err := Bcast(c, v, 0)
		if err != nil {
			return err
		}
		if got.Trials != 500 || len(got.Probs) != 2 {
			return fmt.Errorf("rank %d: %+v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumAllRoots(t *testing.T) {
	for _, np := range worldSizes {
		want := np * (np - 1) / 2
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				got, err := Reduce(c, c.Rank(), Combine[int](Sum), root)
				if err != nil {
					return err
				}
				if c.Rank() == root && got != want {
					return fmt.Errorf("root got %d, want %d", got, want)
				}
				if c.Rank() != root && got != 0 {
					return fmt.Errorf("non-root rank %d got %d, want zero value", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("np=%d root=%d: %v", np, root, err)
			}
		}
	}
}

func TestReduceMaxMinProd(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		v := (c.Rank()*3)%7 + 1 // 1,4,7,3,6
		mx, err := Reduce(c, v, Combine[int](Max), 0)
		if err != nil {
			return err
		}
		mn, err := Reduce(c, v, Combine[int](Min), 0)
		if err != nil {
			return err
		}
		pr, err := Reduce(c, v, Combine[int](Prod), 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if mx != 7 || mn != 1 || pr != 1*4*7*3*6 {
				return fmt.Errorf("max=%d min=%d prod=%d", mx, mn, pr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSlicesElementwise(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := []int{c.Rank(), 2 * c.Rank(), 1}
		got, err := Reduce(c, v, CombineSlices[int](Sum), 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := []int{6, 12, 4}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("got %v, want %v", got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	for _, np := range worldSizes {
		want := np * (np - 1) / 2
		err := Run(np, func(c *Comm) error {
			got, err := Allreduce(c, c.Rank(), Combine[int](Sum))
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("rank %d got %d, want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, np := range worldSizes {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				var items []string
				if c.Rank() == root {
					items = make([]string, np)
					for i := range items {
						items[i] = fmt.Sprintf("piece-%d", i)
					}
				}
				mine, err := Scatter(c, items, root)
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("piece-%d", c.Rank()); mine != want {
					return fmt.Errorf("rank %d scattered %q, want %q", c.Rank(), mine, want)
				}
				all, err := Gather(c, mine+"!", root)
				if err != nil {
					return err
				}
				if c.Rank() == root {
					for i, v := range all {
						if want := fmt.Sprintf("piece-%d!", i); v != want {
							return fmt.Errorf("gathered[%d] = %q, want %q", i, v, want)
						}
					}
				} else if all != nil {
					return fmt.Errorf("non-root received gather slice %v", all)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("np=%d root=%d: %v", np, root, err)
			}
		}
	}
}

func TestScatterWrongLength(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := Scatter(c, []int{1, 2, 3}, 0)
			if err == nil {
				return errors.New("Scatter with 3 items for 2 ranks succeeded")
			}
			// Unblock rank 1, which is still waiting for its piece.
			return c.sendReserved(1, tagScatter, 99)
		}
		v, err := Scatter[int](c, nil, 0)
		if err != nil {
			return err
		}
		if v != 99 {
			return fmt.Errorf("got %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, np := range worldSizes {
		err := Run(np, func(c *Comm) error {
			all, err := Allgather(c, c.Rank()*c.Rank())
			if err != nil {
				return err
			}
			if len(all) != np {
				return fmt.Errorf("got %d items", len(all))
			}
			for i, v := range all {
				if v != i*i {
					return fmt.Errorf("all[%d] = %d, want %d", i, v, i*i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

// TestReducePropertyMatchesSequential: for arbitrary integer inputs and any
// world size, Reduce agrees with a sequential fold.
func TestReducePropertyMatchesSequential(t *testing.T) {
	prop := func(vals []int64, npRaw uint8) bool {
		np := int(npRaw%6) + 1
		if len(vals) < np {
			return true
		}
		var want int64
		for r := 0; r < np; r++ {
			want += vals[r]
		}
		var mu sync.Mutex
		var got int64
		err := Run(np, func(c *Comm) error {
			v, err := Reduce(c, vals[c.Rank()], Combine[int64](Sum), 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				got = v
				mu.Unlock()
			}
			return nil
		})
		return err == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveSequenceStaysMatched runs many back-to-back collectives to
// verify reserved-tag traffic from successive operations never cross-matches.
func TestCollectiveSequenceStaysMatched(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		for round := 0; round < 30; round++ {
			root := round % np
			got, err := Bcast(c, round*7, root)
			if err != nil {
				return err
			}
			if got != round*7 {
				return fmt.Errorf("round %d: bcast got %d", round, got)
			}
			sum, err := Allreduce(c, round+c.Rank(), Combine[int](Sum))
			if err != nil {
				return err
			}
			want := np*round + np*(np-1)/2
			if sum != want {
				return fmt.Errorf("round %d: allreduce got %d, want %d", round, sum, want)
			}
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
