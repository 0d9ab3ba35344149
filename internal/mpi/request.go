package mpi

import (
	"fmt"
	"sync"
)

// Request is a handle on a nonblocking operation, mirroring MPI_Request.
// Complete it with Wait (blocking) or poll it with Test. A pending Irecv
// rides on the same mailbox primitive as a blocking Recv, so a world abort
// or a WithDeadline expiry completes the request with that error instead of
// leaving Wait blocked.
type Request struct {
	mu     sync.Mutex
	done   bool
	doneCh chan struct{}
	status Status
	err    error
}

func newRequest() *Request {
	return &Request{doneCh: make(chan struct{})}
}

// complete marks the request finished with the given outcome.
func (r *Request) complete(st Status, err error) {
	r.mu.Lock()
	r.status = st
	r.err = err
	r.done = true
	r.mu.Unlock()
	close(r.doneCh)
}

// Wait blocks until the operation completes, returning its Status:
// MPI_Wait.
func (r *Request) Wait() (Status, error) {
	<-r.doneCh
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.err
}

// Test reports whether the operation has completed, without blocking. When
// it reports true, the Status and error are final: MPI_Test.
func (r *Request) Test() (Status, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		return Status{}, false, nil
	}
	return r.status, true, r.err
}

// Isend starts a nonblocking send of v to dest under tag and returns
// immediately: MPI_Isend. Because this runtime's sends are buffered, the
// operation completes as soon as the payload is encoded and enqueued, but
// callers should still Wait to observe encoding errors, as they would with
// a real MPI_Isend.
func (c *Comm) Isend(dest, tag int, v any) *Request {
	r := newRequest()
	err := c.Send(dest, tag, v)
	r.complete(Status{Source: c.rank, Tag: tag}, err)
	return r
}

// Irecv starts a nonblocking receive matching (source, tag) into the
// pointer v and returns immediately: MPI_Irecv. v must remain untouched
// until the request completes. The receive is posted before Irecv returns, so
// receives match in the order their calls were made; only the wait for a
// message still to come runs on the request's own goroutine.
func (c *Comm) Irecv(source, tag int, v any) *Request {
	r := newRequest()
	f, w := new(frame), (*waiter)(nil)
	var err error
	if tag < 0 && tag != AnyTag {
		err = fmt.Errorf("%w: receive tag %d", ErrInvalidTag, tag)
	} else {
		err = c.waitFrame("Recv", source, tag, true, v, f, &w)
	}
	if w == nil {
		r.complete(f.receivedInto(v, err))
		return r
	}
	go func() { r.complete(f.receivedInto(v, c.waitFrame("Recv", source, tag, true, v, f, &w))) }()
	return r
}

// Waitall completes all the given requests, returning their statuses in
// order and the first error encountered (by request order): MPI_Waitall.
func Waitall(reqs []*Request) ([]Status, error) {
	statuses := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		st, err := r.Wait()
		statuses[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return statuses, firstErr
}

// Waitany blocks until any of the given requests completes and returns its
// index and status: MPI_Waitany, the primitive behind responsive
// master-worker loops. The completed request should not be waited on again;
// reqs must be non-empty.
func Waitany(reqs []*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("mpi: Waitany needs at least one request")
	}
	type done struct {
		idx int
		st  Status
		err error
	}
	ch := make(chan done, len(reqs))
	for i, r := range reqs {
		go func(i int, r *Request) {
			st, err := r.Wait()
			ch <- done{i, st, err}
		}(i, r)
	}
	d := <-ch
	return d.idx, d.st, d.err
}
