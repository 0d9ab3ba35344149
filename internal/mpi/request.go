package mpi

import "fmt"

// Request is a handle on a nonblocking operation, mirroring MPI_Request;
// Wait completes it. A pending Irecv rides on the same mailbox primitive as
// a blocking Recv, so a world abort or a WithDeadline expiry completes the
// request with that error instead of leaving Wait blocked.
type Request struct {
	doneCh chan struct{} // closed once status and err are final
	status Status
	err    error
}

func newRequest() *Request {
	return &Request{doneCh: make(chan struct{})}
}

// complete marks the request finished with the given outcome.
func (r *Request) complete(st Status, err error) {
	r.status, r.err = st, err
	close(r.doneCh)
}

// Wait blocks until the operation completes, returning its Status:
// MPI_Wait.
func (r *Request) Wait() (Status, error) {
	<-r.doneCh
	return r.status, r.err
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
		err = c.waitFrame("Recv", source, tag, v, f, &w)
	}
	if w == nil {
		r.complete(f.receivedInto(v, err))
		return r
	}
	go func() { r.complete(f.receivedInto(v, c.waitFrame("Recv", source, tag, v, f, &w))) }()
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
