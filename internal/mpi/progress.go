package mpi

import "sync"

// Nonblocking collectives. IAllreduce returns immediately with a Request and
// runs the collective's multi-phase schedule in the background, so a caller
// can overlap the communication with computation and finish with
// Wait/Waitall — MPI_Iallreduce, and the machinery behind the forestfire
// exemplar's communication/computation overlap.
//
// Each communicator owns one lazily created progress engine. The engine
// runs posted collectives strictly in post order on a single background
// goroutine — the progress thread every production MPI hides inside its
// runtime — over a *shadow communicator*: a derived communicator with the
// reserved ctxProgress context id, the same group and rank numbering as its
// parent. The shadow context is what isolates the engine's traffic from the
// parent's: a blocking collective on the parent can proceed concurrently
// with an in-flight nonblocking one without their reserved-tag frames ever
// cross-matching.
//
// Correctness of the matching relies on the usual MPI contract extended to
// nonblocking calls: all ranks post nonblocking collectives on a given
// communicator in the same order (MPI imposes exactly this for the I-
// collectives). Since posts happen in program order on each rank and the
// engine executes FIFO, the k-th posted collective on every rank is the
// same operation, and within it the schedules match by per-pair FIFO just
// as blocking collectives do.
//
// The engine inherits the whole failure model for free, because the
// schedules run on the ordinary blocking primitives: a world abort or
// injected kill poisons the shadow communicator's mailbox like any other,
// WithDeadline converts a stall into the deadline report, and under
// WithRecovery a peer failure surfaces as the retryable *RankFailedError —
// in every case the error completes the Request and comes back from Wait.
//
// Input/output buffers follow MPI's rule: they belong to the runtime from
// post to completion. Do not mutate v (or read *out) between posting and
// Wait returning.

// progressEngine executes posted collective schedules FIFO on a background
// goroutine. The goroutine is spawned on demand and exits when the queue
// drains, so an idle communicator holds no goroutine.
type progressEngine struct {
	pc      *Comm // the shadow communicator all posted schedules run on
	mu      sync.Mutex
	queue   []progOp
	running bool
}

type progOp struct {
	req *Request
	run func(pc *Comm) error
}

// progress returns the communicator's engine, building it (and the shadow
// communicator) on first use.
func (c *Comm) progress() *progressEngine {
	c.progOnce.Do(func() {
		members := make([]int, len(c.ranks))
		for i := range members {
			members[i] = i
		}
		// The shadow is a full-fledged communicator — flatOnly=false — so
		// nonblocking collectives pick up the hierarchical schedules under
		// exactly the same topology rules as blocking ones.
		c.prog = &progressEngine{pc: c.derived(c.ctx*64+ctxProgress, members, false)}
	})
	return c.prog
}

// post enqueues one collective schedule and returns its Request.
func (e *progressEngine) post(run func(pc *Comm) error) *Request {
	r := newRequest()
	e.mu.Lock()
	e.queue = append(e.queue, progOp{req: r, run: run})
	if !e.running {
		e.running = true
		go e.drain()
	}
	e.mu.Unlock()
	return r
}

// drain executes queued schedules in order until the queue empties.
func (e *progressEngine) drain() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.running = false
			e.mu.Unlock()
			return
		}
		op := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		op.req.complete(Status{}, op.run(e.pc))
	}
}

// IAllreduce starts a nonblocking allreduce of v: MPI_Iallreduce. On
// completion every rank's *out holds the combined value.
func IAllreduce[T any](c *Comm, v T, combine func(a, b T) T, out *T) *Request {
	return c.progress().post(func(pc *Comm) error {
		res, err := Allreduce(pc, v, combine)
		if err != nil {
			return err
		}
		if out != nil {
			*out = res
		}
		return nil
	})
}
