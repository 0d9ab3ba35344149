package mpi

import (
	"fmt"
	"math"
	"math/bits"
)

// Fault-tolerant agreement and communicator shrinking: ULFM's
// MPIX_Comm_agree with the launcher layer as the coordinator. agree must
// terminate with one consistent answer even when failures race the protocol
// — the property that makes it the hard primitive — and a coordinator that
// observes failures firsthand sidesteps the unbounded-consensus trap. There
// are two coordinators, and they share everything but their lock: the
// recoveryState an in-process world's ranks share, and the hub of a TCP
// world (failure reports, dropped connections and done frames all reach it).
// Each holds one membership value and applies one rule, decide, to its open
// instances whenever a contribution, a failure or a departure lands; a TCP
// worker only waits for the hub's decision. A rejoin bumps the membership
// epoch and, in the same critical section, fails every open instance of an
// older epoch, whose member list describes a world that no longer exists.
// DESIGN.md §5, "Who decides an agreement", has the rules.

// membership is who is in the world: an epoch, bumped by each rejoin, and
// per world rank one of three states — live (no bit set), failed, or
// departed — plus the gone-for-good mark on a failed rank that no launcher
// will bring back. Its methods are the only transitions, and each reports
// whether it changed anything.
type membership struct {
	epoch    int
	failed   uint64                // main failed, or its connection was lost
	departed uint64                // main returned nil: final
	gone     uint64                // failed and never coming back: final
	rejoined [maxRecoveryRanks]int // epoch of each rank's last rejoin
}

// fail marks a live rank failed, as decided at epoch. A failure decided
// before the rank's last rejoin is stale — a notice that lost its race with
// the rejoin — and changes nothing; so does failing a departed rank.
func (m *membership) fail(rank, epoch int) bool {
	bit := uint64(1) << uint(rank)
	if (m.failed|m.departed)&bit != 0 || m.rejoined[rank] > epoch {
		return false
	}
	m.failed |= bit
	return true
}

// depart marks a live rank departed.
func (m *membership) depart(rank int) bool {
	bit := uint64(1) << uint(rank)
	if (m.failed|m.departed)&bit != 0 {
		return false
	}
	m.departed |= bit
	return true
}

// abandon marks a failed rank gone for good (DESIGN.md §5, "Who decides a
// rank is gone").
func (m *membership) abandon(rank int) bool {
	bit := uint64(1) << uint(rank)
	if m.failed&^m.gone&bit == 0 {
		return false
	}
	m.gone |= bit
	return true
}

// rejoin returns a respawned rank to live at epoch. A rejoin at an epoch the
// membership has already reached has been applied, and a gone rank is
// refused; neither changes anything.
func (m *membership) rejoin(rank, epoch int) bool {
	if epoch <= m.epoch || m.gone&(1<<uint(rank)) != 0 {
		return false
	}
	m.epoch = epoch
	m.failed &^= 1 << uint(rank)
	m.rejoined[rank] = epoch
	return true
}

// rankMask is the bitmask form of a set of world ranks.
func rankMask(ranks []int) uint64 {
	var mask uint64
	for _, r := range ranks {
		mask |= 1 << uint(r)
	}
	return mask
}

// maskRanks lists the world ranks of a bitmask, ascending.
func maskRanks(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros64(mask))
	}
	return out
}

// decide is the agreement rule, the one both coordinators run. An instance
// of an epoch older than the membership's never decides: a rejoin fails it.
// Otherwise it is ready once every member has contributed, failed or
// departed, and the decided mask names every member that is not live plus
// every rank a contribution names failed — so a member that dies or returns
// mid-agreement is folded into the answer instead of stalling it.
func decide(key agreeKey, members []int, contributions map[int]uint64, m *membership) (mask uint64, ready bool) {
	if key.epoch < m.epoch {
		return 0, false
	}
	out := m.failed | m.departed
	for _, r := range members {
		bit := uint64(1) << uint(r)
		if out&bit != 0 {
			mask |= bit
		} else if _, ok := contributions[r]; !ok {
			return 0, false
		}
	}
	for _, c := range contributions {
		mask |= c
	}
	return mask, true
}

// agreeKey identifies one agreement instance: all members of a communicator
// agree in the same order (it is collective), so (context, call
// sequence) names the same instance on every member with no negotiation.
// The epoch is the communicator's: it says which membership the member list
// describes.
type agreeKey struct {
	ctx   int64
	seq   uint64
	epoch int
}

// agreeReq is the wire form of one member's contribution (worker -> hub).
type agreeReq struct {
	Ctx     int64
	Seq     uint64
	Epoch   int
	Rank    int   // contributing world rank
	Members []int // world ranks of the communicator
	Mask    uint64
}

// agreeResp is the decided value (hub -> worker), with the members in it
// that departed or were gone when it was decided: a worker learns of
// departures only here.
type agreeResp struct {
	Ctx      int64
	Seq      uint64
	Epoch    int
	Mask     uint64
	Departed uint64
	Gone     uint64
}

// agreeInst is one open agreement instance. A coordinator collects the
// contributions in arrived; a member waiting for the decision blocks on
// done, closed once mask or err is set.
type agreeInst struct {
	members []int
	arrived map[int]uint64
	done    chan struct{}
	mask    uint64
	final   uint64 // the members of mask that departed or are gone for good
	err     error
}

// release hands the instance's waiter its outcome.
func (inst *agreeInst) release(mask, final uint64, err error) {
	inst.mask, inst.final, inst.err = mask, final, err
	close(inst.done)
}

// agreements are the open instances of one coordinator, or a TCP worker's
// waiters; the owner's lock guards them.
type agreements map[agreeKey]*agreeInst

// open returns the keyed instance, creating it if need be.
func (as agreements) open(key agreeKey, members []int) *agreeInst {
	inst := as[key]
	if inst == nil {
		inst = &agreeInst{
			members: append([]int(nil), members...),
			arrived: make(map[int]uint64),
			done:    make(chan struct{}),
		}
		as[key] = inst
	}
	return inst
}

// settle applies decide to every open instance and passes each one that is
// ready to decided, after forgetting it: no further contribution can come.
func (as agreements) settle(m *membership, decided func(agreeKey, *agreeInst, uint64)) {
	for key, inst := range as {
		if mask, ok := decide(key, inst.members, inst.arrived, m); ok {
			delete(as, key)
			decided(key, inst, mask)
		}
	}
}

// dropOlder forgets every instance of an epoch older than epoch, releasing
// its waiter with err.
func (as agreements) dropOlder(epoch int, err error) {
	for key, inst := range as {
		if key.epoch < epoch {
			delete(as, key)
			inst.release(0, 0, err)
		}
	}
}

// agree contributes self's view of the failed members to the keyed instance
// and blocks until it decides. An in-process world decides here, against
// the membership its ranks share; a TCP worker sends its contribution to the
// hub and waits for deliverDecision.
func (r *recoveryState) agree(key agreeKey, members []int, self int) (mask, final uint64, err error) {
	r.mu.Lock()
	if r.downErr != nil {
		err := r.downErr
		r.mu.Unlock()
		return 0, 0, err
	}
	if key.epoch < r.m.epoch {
		r.mu.Unlock()
		return 0, 0, &RankFailedError{} // membership changed: re-form and retry
	}
	seen := r.m.failed & rankMask(members)
	inst := r.insts.open(key, members)
	inst.arrived[self] = seen
	r.settleLocked()
	r.mu.Unlock()
	if r.ctrlSend != nil {
		data, err := encodeValue(agreeReq{Ctx: key.ctx, Seq: key.seq, Epoch: key.epoch, Rank: self, Members: members, Mask: seen})
		if err == nil {
			err = r.ctrlSend(frame{Dst: ctrlDst, Tag: tagAgreeReq, Data: data})
		}
		if err != nil {
			return 0, 0, err
		}
	}
	<-inst.done
	return inst.mask, inst.final, inst.err
}

// settleLocked decides what the membership now lets decide. Only an
// in-process world decides locally: a TCP worker's instances wait for the
// hub. Caller holds r.mu.
func (r *recoveryState) settleLocked() {
	if r.ctrlSend == nil {
		r.insts.settle(&r.m, func(_ agreeKey, inst *agreeInst, mask uint64) {
			inst.release(mask, mask&(r.m.departed|r.m.gone), nil)
		})
	}
}

// deliverDecision hands the hub's decision to its waiter, after recording
// what it says: the departures it names, and failures and gone marks this
// process has not heard of yet (raced notices), so local checks agree with
// the agreed view before anyone acts on it.
func (r *recoveryState) deliverDecision(resp agreeResp) {
	key := agreeKey{ctx: resp.Ctx, seq: resp.Seq, epoch: resp.Epoch}
	r.mu.Lock()
	inst := r.insts[key]
	delete(r.insts, key)
	for _, rank := range maskRanks(resp.Departed) {
		r.m.depart(rank)
	}
	r.mu.Unlock()
	for _, rank := range maskRanks(resp.Mask &^ resp.Departed) {
		r.world.rankFailed(rank, resp.Epoch, fmt.Errorf("%w: rank %d (agreed)", ErrRankFailed, rank))
	}
	for _, rank := range maskRanks(resp.Gone) {
		r.world.rankGone(rank)
	}
	if inst != nil {
		inst.release(resp.Mask, resp.Departed|resp.Gone, nil)
	}
}

// abortPending fails every outstanding agreement when the world aborts
// outright (explicit abort, deadline breach): recovery does not survive a
// revoked world.
func (r *recoveryState) abortPending(err error) {
	r.mu.Lock()
	if r.downErr == nil {
		r.downErr = err
	}
	r.insts.dropOlder(math.MaxInt, err) // every epoch is older
	r.mu.Unlock()
	r.restoreCond.Broadcast() // restored callers observe downErr and bail
}

// agree runs c's next agreement on the members that are out
// (MPIX_Comm_agree specialized to the failure bitmap): every member still
// taking part receives the identical mask of world ranks that failed or
// departed, even when failures race the protocol — a member that dies
// mid-agreement is folded into the decision rather than stalling it. A
// departed member is one whose main returned nil: it will never agree, so
// it counts out the way a failed one does, but it is not recorded as
// failed. It also returns the instance's final members (agreeInst).
// Collective over the live members; requires WithRecovery.
func (c *Comm) agree() (mask, final uint64, err error) {
	r := c.world.recov
	if r == nil {
		return 0, 0, fmt.Errorf("mpi: Recover requires WithRecovery")
	}
	key := agreeKey{ctx: c.ctx, seq: c.agreeSeq, epoch: c.epoch}
	c.agreeSeq++
	return r.agree(key, c.ranks, c.worldRank(c.rank))
}

// shrink agrees on the members that are out and returns a dense
// communicator of the rest (MPIX_Comm_shrink): survivors keep their relative
// order but are renumbered 0..n-1, and the new communicator has a fresh
// message context — stale frames addressed to the old, possibly revoked
// context can never match in it — over which point-to-point and every
// collective work unchanged. Failed and departed members are both left out,
// so the survivors of a failure during a program's closing collective can
// re-form after their peers have returned. Collective over the live
// members; requires WithRecovery.
func (c *Comm) shrink() (*Comm, error) {
	// Consume a child-context slot before anything can fail, so members
	// whose agreement errors and retry still assign identical context ids.
	seq := c.nextCtx
	c.nextCtx++
	if seq > maxSplitsPerComm {
		return nil, fmt.Errorf("mpi: more than %d Split/shrink calls on one communicator", maxSplitsPerComm)
	}
	out, _, err := c.agree()
	if err != nil {
		return nil, err
	}
	ranks := make([]int, 0, len(c.ranks))
	newRank := -1
	for i, wr := range c.ranks {
		if out&(1<<uint(wr)) != 0 {
			continue
		}
		if i == c.rank {
			newRank = len(ranks)
		}
		ranks = append(ranks, wr)
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: shrink: calling rank %d is in the agreed failed set", c.rank)
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
