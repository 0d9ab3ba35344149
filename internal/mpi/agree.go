package mpi

import (
	"fmt"
	"sync"
)

// Fault-tolerant agreement and communicator shrinking. Agree must terminate
// with one consistent answer even when failures race the protocol — the
// property that makes ULFM's MPIX_Comm_agree the hard primitive. The
// runtime sidesteps the unbounded-consensus trap by making the launcher
// layer the coordinator: in-process worlds decide in a shared engine that
// re-evaluates every open instance whenever a failure lands, and TCP worlds
// delegate the same decision to the hub, which observes failures firsthand
// (failure reports and dropped connections). Either way the decision rule
// is identical: an instance decides once every live member has contributed,
// and the decided value is the union of the contributed failure masks with
// the coordinator's own view of the failed members — so a rank that dies
// mid-agreement is folded into the answer instead of stalling it.

// agreeKey identifies one agreement instance: all members of a communicator
// call Agree in the same order (it is collective), so (context, call
// sequence) names the same instance on every member with no negotiation.
type agreeKey struct {
	ctx int64
	seq uint64
}

// agreeOutcome is what a waiting member receives when its instance decides.
type agreeOutcome struct {
	mask uint64
	err  error
}

// agreeReq is the wire form of one member's contribution (worker -> hub).
type agreeReq struct {
	Ctx     int64
	Seq     uint64
	Rank    int   // contributing world rank
	Members []int // world ranks of the communicator
	Mask    uint64
}

// agreeResp is the decided value (hub -> worker).
type agreeResp struct {
	Ctx  int64
	Seq  uint64
	Mask uint64
}

// agreeInst is one open agreement instance in the local engine.
type agreeInst struct {
	members  []int
	arrived  map[int]uint64 // member world rank -> contributed mask
	done     chan struct{}
	decided  bool
	decision uint64
	err      error // set when the instance was interrupted (membership change)
}

// agreeEngine coordinates agreement for in-process worlds: one instance per
// World, shared by all rank goroutines.
type agreeEngine struct {
	r *recoveryState

	mu    sync.Mutex
	insts map[agreeKey]*agreeInst
	down  error
}

func newAgreeEngine(r *recoveryState) *agreeEngine {
	return &agreeEngine{r: r, insts: make(map[agreeKey]*agreeInst)}
}

// agree contributes self's mask to the keyed instance and blocks until it
// decides. The instance decides as soon as every live member has
// contributed; members that fail before contributing are excluded by
// reevaluate, so the protocol cannot stall on the very failure it is
// agreeing about.
func (e *agreeEngine) agree(key agreeKey, members []int, self int, mask uint64) (uint64, error) {
	e.mu.Lock()
	if e.down != nil {
		err := e.down
		e.mu.Unlock()
		return 0, err
	}
	inst := e.insts[key]
	if inst == nil {
		inst = &agreeInst{
			members: append([]int(nil), members...),
			arrived: make(map[int]uint64),
			done:    make(chan struct{}),
		}
		e.insts[key] = inst
	}
	inst.arrived[self] = mask
	e.evaluateLocked(key, inst)
	e.mu.Unlock()

	<-inst.done
	e.mu.Lock()
	defer e.mu.Unlock()
	if !inst.decided {
		if inst.err != nil {
			return 0, inst.err
		}
		return 0, e.down
	}
	return inst.decision, nil
}

// evaluateLocked decides the instance if every live member has contributed.
// Caller holds e.mu. On decision the instance is removed from the map —
// every member still waiting holds its pointer, and no further arrivals are
// possible (failed members never call agree).
func (e *agreeEngine) evaluateLocked(key agreeKey, inst *agreeInst) {
	if inst.decided {
		return
	}
	failedMask := e.r.maskSnapshot()
	decision := uint64(0)
	for _, m := range inst.members {
		bit := uint64(1) << uint(m)
		if failedMask&bit != 0 {
			decision |= bit
			continue
		}
		if _, ok := inst.arrived[m]; !ok {
			return // a live member has not arrived yet
		}
	}
	for _, contributed := range inst.arrived {
		decision |= contributed
	}
	inst.decided, inst.decision = true, decision
	delete(e.insts, key)
	close(inst.done)
}

// reevaluate re-runs the decision rule on every open instance; called after
// each failure so instances waiting on a just-failed member decide.
func (e *agreeEngine) reevaluate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, inst := range e.insts {
		e.evaluateLocked(key, inst)
	}
}

// interrupt releases every open instance with err without latching the
// engine down: a world-membership change (a rank rejoined at full width)
// invalidates in-flight agreements — their member lists describe the old
// epoch — but the engine itself stays healthy for the retries.
func (e *agreeEngine) interrupt(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, inst := range e.insts {
		delete(e.insts, key)
		if !inst.decided {
			inst.err = err
			close(inst.done)
		}
	}
}

// fail releases every open instance with err: the world aborted outright.
func (e *agreeEngine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down == nil {
		e.down = err
	}
	for key, inst := range e.insts {
		delete(e.insts, key)
		if !inst.decided {
			close(inst.done)
		}
	}
}

// tcpAgree is the worker half of hub-coordinated agreement: register a
// waiter, send the contribution, block for the hub's decision (delivered by
// whoever reads the hub connection: this wait is not on the mailbox, so that
// is the transport's fallback reader).
func (r *recoveryState) tcpAgree(key agreeKey, members []int, self int, mask uint64) (uint64, error) {
	ch := make(chan agreeOutcome, 1)
	r.mu.Lock()
	if r.downErr != nil {
		err := r.downErr
		r.mu.Unlock()
		return 0, err
	}
	r.waiters[key] = ch
	r.mu.Unlock()
	data, err := encodeValue(agreeReq{Ctx: key.ctx, Seq: key.seq, Rank: self, Members: members, Mask: mask})
	if err != nil {
		return 0, err
	}
	if err := r.ctrlSend(frame{Dst: ctrlDst, Tag: tagAgreeReq, Data: data}); err != nil {
		return 0, err
	}
	out := <-ch
	return out.mask, out.err
}

// deliverDecision hands a hub agreement response to its waiter.
func (r *recoveryState) deliverDecision(resp agreeResp) {
	key := agreeKey{ctx: resp.Ctx, seq: resp.Seq}
	r.mu.Lock()
	ch := r.waiters[key]
	delete(r.waiters, key)
	r.mu.Unlock()
	if ch != nil {
		ch <- agreeOutcome{mask: resp.Mask}
	}
}

// agreeCall dispatches to the engine (Run) or the hub (TCP).
func (w *World) agreeCall(key agreeKey, members []int, self int, mask uint64) (uint64, error) {
	r := w.recov
	if r.engine != nil {
		return r.engine.agree(key, members, self, mask)
	}
	return r.tcpAgree(key, members, self, mask)
}

// Agree performs fault-tolerant agreement on the communicator's failed
// members (MPIX_Comm_agree specialized to the failure bitmap): every
// surviving member receives the identical sorted set of failed
// communicator-local ranks, even when failures race the protocol — a
// member that dies mid-agreement is folded into the decided set rather
// than stalling it. Collective over the surviving members; requires
// WithRecovery.
func (c *Comm) Agree() ([]int, error) {
	w := c.world
	if w.recov == nil {
		return nil, fmt.Errorf("mpi: Agree requires WithRecovery")
	}
	seq := c.agreeSeq
	c.agreeSeq++
	key := agreeKey{ctx: c.ctx, seq: seq}
	self := c.worldRank(c.rank)
	mask := uint64(0)
	localFailed := w.recov.maskSnapshot()
	for _, wr := range c.ranks {
		mask |= localFailed & (1 << uint(wr))
	}
	decision, err := w.agreeCall(key, c.ranks, self, mask)
	if err != nil {
		return nil, err
	}
	// The decision may name failures this process has not observed yet
	// (raced broadcasts on TCP); fold them in so local checks agree with
	// the agreed view before anyone acts on it.
	w.recov.adoptFailures(decision, c.ranks, c.epoch)
	var out []int
	for i, wr := range c.ranks {
		if decision&(1<<uint(wr)) != 0 {
			out = append(out, i)
		}
	}
	return out, nil
}

// Shrink agrees on the failed members and returns a dense communicator of
// the survivors (MPIX_Comm_shrink): survivors keep their relative order but
// are renumbered 0..n-1, and the new communicator has a fresh message
// context — stale frames addressed to the old, possibly revoked context can
// never match in it — over which point-to-point and every collective work
// unchanged. Collective over the surviving members; requires WithRecovery.
func (c *Comm) Shrink() (*Comm, error) {
	// Consume a child-context slot before anything can fail, so members
	// whose Agree errors and retry still assign identical context ids.
	seq := c.nextCtx
	c.nextCtx++
	if seq > maxSplitsPerComm {
		return nil, fmt.Errorf("mpi: more than %d Split/Dup/Shrink calls on one communicator", maxSplitsPerComm)
	}
	failed, err := c.Agree()
	if err != nil {
		return nil, err
	}
	failedSet := make(map[int]bool, len(failed))
	for _, r := range failed {
		failedSet[r] = true
	}
	ranks := make([]int, 0, len(c.ranks)-len(failed))
	newRank := -1
	for i, wr := range c.ranks {
		if failedSet[i] {
			continue
		}
		if i == c.rank {
			newRank = len(ranks)
		}
		ranks = append(ranks, wr)
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: Shrink: calling rank %d is in the agreed failed set", c.rank)
	}
	return &Comm{
		world:   c.world,
		ctx:     c.ctx*64 + seq,
		rank:    newRank,
		ranks:   ranks,
		nextCtx: 1,
		epoch:   c.epoch,
	}, nil
}
