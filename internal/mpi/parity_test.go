package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Transport parity: the public mpi API must behave identically whether
// messages travel as typed in-memory payloads (local fast path), over real
// TCP sockets through the hub, or through mmap-backed shared-memory rings
// (RunShm). Each scenario below runs under every mode and the per-rank
// results are compared structurally; TestParityGobPayloads keeps every
// mode's gob path among them. Its payloads are small, so on shm they
// travel eagerly; the rendezvous and chunked protocols are reached by size
// in shmtransport_test.go and the vector parity sweep.

type parityMode struct {
	name string
	run  func(np int, main func(c *Comm) error, opts ...Option) error
	opts []Option
}

func parityModes() []parityMode {
	modes := []parityMode{
		{name: "local-fast", run: Run},
		{name: "tcp", run: RunTCP},
	}
	if shmSupported {
		modes = append(modes, parityMode{name: "shm", run: RunShm})
	}
	return modes
}

// runParity executes body under every transport mode and requires the
// per-rank results to be identical across modes.
func runParity(t *testing.T, np int, body func(c *Comm) (any, error)) {
	t.Helper()
	var want []any
	var wantMode string
	for _, mode := range parityModes() {
		results := make([]any, np)
		var mu sync.Mutex
		err := mode.run(np, func(c *Comm) error {
			v, err := body(c)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = v
			mu.Unlock()
			return nil
		}, mode.opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if want == nil {
			want, wantMode = results, mode.name
			continue
		}
		if !reflect.DeepEqual(results, want) {
			t.Errorf("np=%d: %s results %v differ from %s results %v", np, mode.name, results, wantMode, want)
		}
	}
}

func TestParityBcast(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			v := []float64(nil)
			if c.Rank() == np-1 {
				v = []float64{1.5, 2.5, 3.5}
			}
			return Bcast(c, v, np-1)
		})
	}
}

func TestParityReduce(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			return Reduce(c, c.Rank()+1, Combine[int](Sum), 0)
		})
	}
}

func TestParityAllreduce(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			return Allreduce(c, float64(c.Rank()), Combine[float64](Max))
		})
	}
}

func TestParityScatterGather(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			var items []string
			if c.Rank() == 0 {
				items = make([]string, c.Size())
				for i := range items {
					items[i] = fmt.Sprintf("piece-%d", i)
				}
			}
			mine, err := Scatter(c, items, 0)
			if err != nil {
				return nil, err
			}
			all, err := Gather(c, mine+"!", 0)
			if err != nil {
				return nil, err
			}
			return []any{mine, all}, nil
		})
	}
}

func TestParityAllgather(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			return Allgather(c, c.Rank()*c.Rank())
		})
	}
}

func TestParityBarrier(t *testing.T) {
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			if err := c.Barrier(); err != nil {
				return nil, err
			}
			return "released", nil
		})
	}
}

// parityPoint is on no transport's whitelist, so every mode carries it as a
// gob payload: the local fast path, the TCP wire and the shm rings alike.
type parityPoint struct {
	Name string
	X, Y float64
	Tags []string
}

// TestParityGobPayloads: a value only gob can carry behaves the same on
// every transport through Send/Recv, Bcast, and Allreduce with a user
// combine.
func TestParityGobPayloads(t *testing.T) {
	add := func(a, b parityPoint) parityPoint {
		return parityPoint{Name: a.Name + "+" + b.Name, X: a.X + b.X, Y: a.Y * b.Y, Tags: append(append([]string(nil), a.Tags...), b.Tags...)}
	}
	for _, np := range []int{1, 2, 5} {
		runParity(t, np, func(c *Comm) (any, error) {
			r := c.Rank()
			mine := parityPoint{Name: fmt.Sprint("p", r), X: float64(r) + 0.5, Y: float64(r + 1), Tags: []string{fmt.Sprint(r)}}
			next, prev := (r+1)%c.Size(), (r+c.Size()-1)%c.Size()
			if err := c.Send(next, 3, mine); err != nil {
				return nil, err
			}
			var got parityPoint
			if _, err := c.Recv(prev, 3, &got); err != nil {
				return nil, err
			}
			root, err := Bcast(c, mine, c.Size()-1)
			if err != nil {
				return nil, err
			}
			sum, err := Allreduce(c, mine, add)
			if err != nil {
				return nil, err
			}
			return []parityPoint{got, root, sum}, nil
		})
	}
}

func TestParityCollectiveSequence(t *testing.T) {
	// Back-to-back collectives over a derived communicator: the stress shape
	// Split-based programs produce, with reserved-tag traffic from different
	// contexts in flight together.
	runParity(t, 4, func(c *Comm) (any, error) {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return nil, err
		}
		sum, err := Allreduce(sub, c.Rank(), Combine[int](Sum))
		if err != nil {
			return nil, err
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		all, err := Allgather(c, sum)
		if err != nil {
			return nil, err
		}
		return all, nil
	})
}

// TestParityNonOvertaking pins the value-and-order semantics of the
// point-to-point layer across transports: messages from one sender under
// one tag arrive in send order, wildcards included.
func TestParityNonOvertaking(t *testing.T) {
	const msgs = 20
	runParity(t, 2, func(c *Comm) (any, error) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 7, []int{i, i * i}); err != nil {
					return nil, err
				}
			}
			return "sent", nil
		}
		var order []int
		for i := 0; i < msgs; i++ {
			var got []int
			if _, err := c.Recv(AnySource, AnyTag, &got); err != nil {
				return nil, err
			}
			order = append(order, got[0])
		}
		return order, nil
	})
}

// Error paths must also agree across transports.

func TestParityErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		np   int
		body func(c *Comm) error
	}{
		{name: "bcast invalid root", np: 2, body: func(c *Comm) error {
			_, err := Bcast(c, 0, 9)
			if !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("Bcast root 9 = %v, want ErrInvalidRank", err)
			}
			return nil
		}},
		{name: "reduce invalid root", np: 2, body: func(c *Comm) error {
			_, err := Reduce(c, 1, Combine[int](Sum), -3)
			if !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("Reduce root -3 = %v, want ErrInvalidRank", err)
			}
			return nil
		}},
		{name: "send reserved user tag", np: 2, body: func(c *Comm) error {
			if err := c.Send(0, -5, 1); !errors.Is(err, ErrInvalidTag) {
				return fmt.Errorf("Send tag -5 = %v, want ErrInvalidTag", err)
			}
			return nil
		}},
		{name: "send out-of-range dest", np: 2, body: func(c *Comm) error {
			if err := c.Send(5, 0, 1); !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("Send dest 5 = %v, want ErrInvalidRank", err)
			}
			return nil
		}},
		{name: "scatter wrong length", np: 2, body: func(c *Comm) error {
			if c.Rank() == 0 {
				if _, err := Scatter(c, []int{1, 2, 3}, 0); err == nil {
					return errors.New("Scatter with 3 items for 2 ranks succeeded")
				}
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
		}},
		{name: "recv type mismatch", np: 2, body: func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, "definitely a string")
			}
			var wrong struct{ X, Y int }
			_, err := c.Recv(0, 0, &wrong)
			if err == nil {
				return errors.New("string decoded into struct without error")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		for _, mode := range parityModes() {
			if err := mode.run(tc.np, tc.body, mode.opts...); err != nil {
				t.Errorf("%s over %s: %v", tc.name, mode.name, err)
			}
		}
	}
}
