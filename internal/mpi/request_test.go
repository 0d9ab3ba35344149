package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestIsendIrecvPair(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Isend(1, 3, "hello")
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if st.Tag != 3 {
				return fmt.Errorf("isend status = %v", st)
			}
			return nil
		}
		var msg string
		req := c.Irecv(0, 3, &msg)
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Source != 0 || msg != "hello" {
			return fmt.Errorf("irecv got %q from %v", msg, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvTestPolling(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Barrier(); err != nil { // let rank 1 post the Irecv first
				return err
			}
			return c.Send(1, 0, 123)
		}
		var v int
		req := c.Irecv(0, 0, &v)
		if _, done, _ := req.Test(); done {
			return errors.New("Test reported done before any send")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, done, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				if v != 123 || st.Source != 0 {
					return fmt.Errorf("v=%d st=%v", v, st)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return errors.New("Irecv never completed")
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallCollectsAllStatuses(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		if c.Rank() == 0 {
			vals := make([]int, np-1)
			reqs := make([]*Request, np-1)
			for i := 1; i < np; i++ {
				reqs[i-1] = c.Irecv(i, 1, &vals[i-1])
			}
			sts, err := Waitall(reqs)
			if err != nil {
				return err
			}
			for i, st := range sts {
				if st.Source != i+1 {
					return fmt.Errorf("status %d came from %d", i, st.Source)
				}
				if vals[i] != (i+1)*10 {
					return fmt.Errorf("vals[%d] = %d", i, vals[i])
				}
			}
			return nil
		}
		return c.Send(0, 1, c.Rank()*10)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendCarriesEncodingError(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		// Channels cannot be gob-encoded, so the Isend must surface an error
		// at Wait, like a failed MPI_Isend surfacing in MPI_Wait.
		req := c.Isend(0, 0, make(chan int))
		if _, err := req.Wait(); err == nil {
			return errors.New("Isend of unencodable value reported success")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvAnySource(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		if c.Rank() == 0 {
			vals := make([]int, np-1)
			reqs := make([]*Request, np-1)
			for i := range reqs {
				reqs[i] = c.Irecv(AnySource, 0, &vals[i])
			}
			if _, err := Waitall(reqs); err != nil {
				return err
			}
			sum := 0
			for _, v := range vals {
				sum += v
			}
			if sum != 1+2+3 {
				return fmt.Errorf("sum = %d", sum)
			}
			return nil
		}
		return c.Send(0, 0, c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyReturnsFirstCompletion(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			var a, b int
			reqs := []*Request{
				c.Irecv(1, 0, &a), // never satisfied until late
				c.Irecv(2, 0, &b), // satisfied immediately
			}
			idx, st, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx != 1 || st.Source != 2 || b != 222 {
				return fmt.Errorf("Waitany = idx %d, st %v, b %d", idx, st, b)
			}
			// Release rank 1's message and complete the other request.
			if err := c.Send(1, 1, 0); err != nil {
				return err
			}
			if _, err := reqs[0].Wait(); err != nil {
				return err
			}
			if a != 111 {
				return fmt.Errorf("a = %d", a)
			}
			return nil
		}
		if c.Rank() == 1 {
			// Hold the message back until rank 0 signals.
			if _, err := c.Recv(0, 1, nil); err != nil {
				return err
			}
			return c.Send(0, 0, 111)
		}
		return c.Send(0, 0, 222)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyEmpty(t *testing.T) {
	if _, _, err := Waitany(nil); err == nil {
		t.Fatal("empty Waitany accepted")
	}
}

// TestWaitallEmpty: MPI_Waitall over zero requests is a no-op success, for
// both a nil and an empty slice.
func TestWaitallEmpty(t *testing.T) {
	for _, reqs := range [][]*Request{nil, {}} {
		sts, err := Waitall(reqs)
		if err != nil {
			t.Fatalf("Waitall(%v) err = %v", reqs, err)
		}
		if len(sts) != 0 {
			t.Fatalf("Waitall(%v) returned %d statuses", reqs, len(sts))
		}
	}
}

// TestWaitRepeatable: waiting twice on a completed request returns the same
// final status and error both times — Wait is idempotent once done.
func TestWaitRepeatable(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, 77)
		}
		var v int
		req := c.Irecv(0, 4, &v)
		st1, err1 := req.Wait()
		st2, err2 := req.Wait()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("Wait errs = %v, %v", err1, err2)
		}
		if st1 != st2 || st1.Source != 0 || v != 77 {
			return fmt.Errorf("repeated Wait disagreed: %v vs %v (v=%d)", st1, st2, v)
		}
		// Test after Wait agrees too.
		st3, done, err3 := req.Test()
		if !done || err3 != nil || st3 != st1 {
			return fmt.Errorf("Test after Wait = %v, %v, %v", st3, done, err3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestTestAfterAbort: a world abort completes a pending Irecv, so a
// subsequent Test reports done with the abort as its final error.
func TestRequestTestAfterAbort(t *testing.T) {
	var testErr error
	var testDone bool
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return errDeliberate
			}
			var v int
			req := c.Irecv(1, 0, &v) // never satisfied: the peer fails instead
			_, werr := req.Wait()
			_, testDone, testErr = req.Test()
			return werr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("run err = %v, want ErrWorldAborted", err)
	}
	if !testDone {
		t.Fatal("Test after abort reported not-done")
	}
	if !errors.Is(testErr, ErrWorldAborted) || !errors.Is(testErr, errDeliberate) {
		t.Fatalf("Test err = %v, want ErrWorldAborted wrapping the cause", testErr)
	}
}

// TestIrecvMatchesInPostingOrder: two Irecvs for the same (source, tag) match
// in the order they were called, as MPI says and the package's non-overtaking
// promise implies. Irecv used to post from a goroutine that had yet to run, so
// the second could overtake the first (4 of 200 fresh worlds); 2 000 fresh
// worlds each time keep it at none.
func TestIrecvMatchesInPostingOrder(t *testing.T) {
	for i := 0; i < 2000; i++ {
		err := Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				if _, err := c.Recv(0, 8, nil); err != nil {
					return err
				}
				if err := c.Send(0, 7, []int{1}); err != nil {
					return err
				}
				return c.Send(0, 7, []int{2})
			}
			var a, b []int
			reqs := []*Request{c.Irecv(1, 7, &a), c.Irecv(1, 7, &b)}
			if err := c.Send(1, 8, 0); err != nil {
				return err
			}
			if _, err := Waitall(reqs); err != nil {
				return err
			}
			if len(a) != 1 || len(b) != 1 || a[0] != 1 || b[0] != 2 {
				return fmt.Errorf("world %d: the first Irecv got %v and the second %v, want [1] and [2]", i, a, b)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
