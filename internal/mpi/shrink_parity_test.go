package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Shrink parity suite: a communicator produced by shrink must
// be observationally identical to a fresh world of the same size — same
// collective results AND the same protocol round structure, counted frame by
// frame. The shrunken runs use the in-process transport, where recovery
// (failure detection, agree, revoke) moves no frames at all, so the counter
// sees exactly the collective under test in both runs.

type parityObs struct {
	reduce int   // reduce result at root
	gather []int // allgather result (identical on every rank)
}

func observeOps(c *Comm, obs *parityObs, mu *sync.Mutex) error {
	sum := func(a, b int) int { return a + b }
	red, err := Reduce(c, c.Rank()+1, sum, 0) // default: binary tree
	if err != nil {
		return err
	}
	gath, err := Allgather(c, c.Rank()*10) // ring
	if err != nil {
		return err
	}
	if err := c.Barrier(); err != nil { // dissemination
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if c.Rank() == 0 {
		obs.reduce = red
	}
	if obs.gather == nil {
		obs.gather = gath
	} else if !reflect.DeepEqual(obs.gather, gath) {
		return fmt.Errorf("allgather results differ across ranks: %v vs %v", obs.gather, gath)
	}
	return nil
}

func TestShrinkParityWithFreshWorld(t *testing.T) {
	const n = 4
	sizes := []struct {
		name string
		run  func(t *testing.T, mc *MessageCounter) parityObs
	}{
		{"fresh", func(t *testing.T, mc *MessageCounter) parityObs {
			var obs parityObs
			var mu sync.Mutex
			err := Run(n, func(c *Comm) error {
				return observeOps(c, &obs, &mu)
			}, WithCounter(mc))
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			return obs
		}},
		{"shrunk", func(t *testing.T, mc *MessageCounter) parityObs {
			var obs parityObs
			var mu sync.Mutex
			err := Run(n+1, func(c *Comm) error {
				if c.Rank() == n {
					return errDeliberate // rank 4 dies before any traffic
				}
				// Observe the failure without moving a single frame: a
				// receive naming the dead source fails locally.
				if _, rerr := c.Recv(n, 9, nil); !errors.Is(rerr, ErrRankFailed) {
					return fmt.Errorf("want ErrRankFailed, got %v", rerr)
				}
				if err := c.revoke(); err != nil {
					return err
				}
				nc, err := c.shrink()
				if err != nil {
					return err
				}
				if nc.Size() != n {
					return fmt.Errorf("shrunken size %d, want %d", nc.Size(), n)
				}
				return observeOps(nc, &obs, &mu)
			}, WithRecovery(), WithCounter(mc))
			if err != nil {
				t.Fatalf("shrunken run: %v", err)
			}
			return obs
		}},
	}

	results := map[string]parityObs{}
	counters := map[string]*MessageCounter{}
	for _, s := range sizes {
		mc := NewMessageCounter()
		results[s.name] = s.run(t, mc)
		counters[s.name] = mc
	}

	fresh, shrunk := results["fresh"], results["shrunk"]
	if fresh.reduce != shrunk.reduce {
		t.Errorf("reduce parity: fresh %d, shrunk %d", fresh.reduce, shrunk.reduce)
	}
	if !reflect.DeepEqual(fresh.gather, shrunk.gather) {
		t.Errorf("allgather parity: fresh %v, shrunk %v", fresh.gather, shrunk.gather)
	}

	// Final frame counts, read after both worlds have fully quiesced. The
	// shrunken world's recovery machinery must have added zero frames: the
	// protocol structure on a Shrink-derived comm is identical to a fresh
	// world of that size.
	want := map[int]int{
		tagReduce: n - 1,                      // binary tree: one frame per non-root
		tagAllgat: n * (n - 1),                // ring: every rank forwards n-1 slots
		tagDissem: n * disseminationRounds(n), // dissemination: one token per rank per round
	}
	for name, mc := range counters {
		for tag, w := range want {
			if got := mc.Tag(tag); got != w {
				t.Errorf("%s: tag %d carried %d frames, want %d", name, tag, got, w)
			}
		}
	}
	if ft, st := counters["fresh"].Total(), counters["shrunk"].Total(); ft != st {
		t.Errorf("total frame parity: fresh %d, shrunk %d", ft, st)
	}
}

// TestShrinkThenSplit: a Shrink-derived communicator supports the full
// derived-communicator machinery — Split into halves with working
// collectives, matching a fresh world's split results exactly.
func TestShrinkThenSplit(t *testing.T) {
	const n = 4
	sum := func(a, b int) int { return a + b }

	splitSums := func(launch func(body func(c *Comm) error) error, prep func(c *Comm) (*Comm, error)) (map[int]int, error) {
		var mu sync.Mutex
		out := map[int]int{}
		err := launch(func(c *Comm) error {
			nc, err := prep(c)
			if err != nil || nc == nil {
				return err
			}
			half, err := nc.Split(nc.Rank()%2, nc.Rank())
			if err != nil {
				return err
			}
			s, err := Allreduce(half, nc.Rank(), sum)
			if err != nil {
				return err
			}
			mu.Lock()
			out[nc.Rank()] = s
			mu.Unlock()
			return nil
		})
		return out, err
	}

	freshSums, err := splitSums(
		func(body func(c *Comm) error) error { return Run(n, body) },
		func(c *Comm) (*Comm, error) { return c, nil },
	)
	if err != nil {
		t.Fatalf("fresh split run: %v", err)
	}

	shrunkSums, err := splitSums(
		func(body func(c *Comm) error) error {
			return runWithWatchdog(t, 30*time.Second, func() error {
				return Run(n+1, body, WithRecovery())
			})
		},
		func(c *Comm) (*Comm, error) {
			if c.Rank() == n {
				return nil, errDeliberate
			}
			if _, rerr := c.Recv(n, 9, nil); !errors.Is(rerr, ErrRankFailed) {
				return nil, fmt.Errorf("want ErrRankFailed, got %v", rerr)
			}
			if err := c.revoke(); err != nil {
				return nil, err
			}
			return c.shrink()
		},
	)
	if err != nil {
		t.Fatalf("shrunken split run: %v", err)
	}

	if !reflect.DeepEqual(freshSums, shrunkSums) {
		t.Errorf("split-comm parity: fresh %v, shrunk %v", freshSums, shrunkSums)
	}
}
