package mpi

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// rankSet is a set of world ranks of any width: rank r is bit r%64 of word
// r/64, and the set grows with the highest rank it holds. Membership, the
// agreement and the start frame all hold ranks in it, gob carries it as it
// is, and no other code knows its representation.
type rankSet []uint64

// setOf is the set of the given ranks.
func setOf(ranks ...int) (s rankSet) {
	for _, r := range ranks {
		s.add(r)
	}
	return s
}

func (s rankSet) has(r int) bool { return r >= 0 && r/64 < len(s) && s[r/64]&(1<<(r%64)) != 0 }

func (s *rankSet) add(r int) {
	for len(*s) <= r/64 {
		*s = append(*s, 0)
	}
	(*s)[r/64] |= 1 << (r % 64)
}

func (s *rankSet) remove(r int) { *s = s.minus(setOf(r)) }

// union is s ∪ t, minus s \ t and and s ∩ t: each a new set, sharing no
// words with s or t.
func (s rankSet) union(t rankSet) rankSet { return setOf(append(s.list(), t.list()...)...) }
func (s rankSet) minus(t rankSet) rankSet { return setOf(slices.DeleteFunc(s.list(), t.has)...) }
func (s rankSet) and(t rankSet) rankSet   { return s.minus(s.minus(t)) }

func (s rankSet) empty() bool { return !slices.ContainsFunc(s, func(w uint64) bool { return w != 0 }) }

// list is the ranks of s, ascending.
func (s rankSet) list() (out []int) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
	}
	return out
}

// membership is who is in the world: an epoch, bumped by each rejoin, and
// per world rank one of three states — live (in no set), failed, or
// departed — plus the gone-for-good mark on a failed rank that no launcher
// will bring back. Its methods are the only transitions, and each reports
// whether it changed anything. Its sets change in place, so nothing reads
// them outside the owner's lock.
type membership struct {
	epoch    int
	failed   rankSet     // main failed, or its connection was lost
	departed rankSet     // main returned nil: final
	gone     rankSet     // failed and never coming back: final
	rejoined map[int]int // epoch of each rank's last rejoin
	final    bool        // a coordinator nothing relaunches through: fail marks gone too (DESIGN.md §5)
	restores int64       // the last restore context id stamped (restoreCtx)
}

// fail marks a live rank failed, as decided at epoch, and gone too when the
// failure is final. A failure decided before the rank's last rejoin is
// stale — a notice that lost its race with the rejoin — and changes
// nothing; so does failing a departed rank.
func (m *membership) fail(rank, epoch int) bool {
	if m.failed.has(rank) || m.departed.has(rank) || m.rejoined[rank] > epoch {
		return false
	}
	m.failed.add(rank)
	if m.final {
		m.gone.add(rank)
	}
	return true
}

// depart marks a live rank departed.
func (m *membership) depart(rank int) bool {
	if m.failed.has(rank) || m.departed.has(rank) {
		return false
	}
	m.departed.add(rank)
	return true
}

// abandon marks a failed rank gone for good (DESIGN.md §5, "Who decides a
// rank is gone").
func (m *membership) abandon(rank int) bool {
	if !m.failed.has(rank) || m.gone.has(rank) {
		return false
	}
	m.gone.add(rank)
	return true
}

// rejoin returns a respawned rank to live at epoch. A rejoin at an epoch the
// membership has already reached has been applied, and a gone rank is
// refused; neither changes anything.
func (m *membership) rejoin(rank, epoch int) bool {
	if epoch <= m.epoch || m.gone.has(rank) {
		return false
	}
	if m.rejoined == nil {
		m.rejoined = make(map[int]int)
	}
	m.epoch = epoch
	m.failed.remove(rank)
	m.rejoined[rank] = epoch
	return true
}

// decide is the agreement rule, the one both coordinators run. An instance
// of an epoch older than the membership's never decides: a rejoin fails it.
// Otherwise it is ready once every member has contributed, failed or
// departed, and the decided mask names every member that is not live plus
// every rank a contribution names failed — so a member that dies or returns
// mid-agreement is folded into the answer instead of stalling it.
func decide(key agreeKey, members []int, contributions map[int]rankSet, m *membership) (mask rankSet, ready bool) {
	if key.epoch < m.epoch {
		return nil, false
	}
	for _, r := range members {
		if m.failed.has(r) || m.departed.has(r) {
			mask.add(r)
		} else if _, ok := contributions[r]; !ok {
			return nil, false
		}
	}
	for _, c := range contributions {
		mask = mask.union(c)
	}
	return mask, true
}

// agreeKey identifies one agreement instance: all members of a communicator
// agree in the same order (it is collective), so (ctxKey, call sequence)
// names the same instance on every member with no negotiation. The epoch is
// the communicator's: it says which membership the member list describes.
type agreeKey struct {
	ctxKey
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
	Mask    rankSet
}

// agreeResp is the decided value (hub -> worker), with the members in it
// that departed or were gone when it was decided: a worker learns of
// departures only here.
type agreeResp struct {
	Ctx      int64
	Lead     int // the lowest of the members (agreeKey)
	Seq      uint64
	Epoch    int
	Mask     rankSet
	Departed rankSet
	Gone     rankSet
	NewCtx   int64 // the context id of the communicator the decision restores
}

// agreeInst is one open agreement instance. A coordinator collects the
// contributions in arrived; a member waiting for the decision blocks on
// done, closed once mask or err is set.
type agreeInst struct {
	members []int
	arrived map[int]rankSet
	done    chan struct{}
	mask    rankSet
	final   rankSet // the members of mask that departed or are gone for good
	ctx     int64   // the context id of the communicator the decision restores
	err     error
}

// release hands the instance's waiter its outcome.
func (inst *agreeInst) release(mask, final rankSet, ctx int64, err error) {
	inst.mask, inst.final, inst.ctx, inst.err = mask, final, ctx, err
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
			arrived: make(map[int]rankSet),
			done:    make(chan struct{}),
		}
		as[key] = inst
	}
	return inst
}

// settle applies decide to every open instance and passes each one that is
// ready to decided, after forgetting it (no further contribution can come),
// with the context id of the communicator it restores.
func (as agreements) settle(m *membership, decided func(agreeKey, *agreeInst, rankSet, int64)) {
	for key, inst := range as {
		if mask, ok := decide(key, inst.members, inst.arrived, m); ok {
			delete(as, key)
			decided(key, inst, mask, m.restoreCtx())
		}
	}
}

// dropOlder forgets every instance of an epoch older than epoch, releasing
// its waiter with err.
func (as agreements) dropOlder(epoch int, err error) {
	for key, inst := range as {
		if key.epoch < epoch {
			delete(as, key)
			inst.release(nil, nil, 0, err)
		}
	}
}

// agree contributes self's view of the failed members to the keyed instance
// and blocks until it decides, returning the decided instance. An in-process
// world decides here, against the membership its ranks share; a TCP worker
// sends its contribution to the hub and waits for deliverDecision.
func (r *recoveryState) agree(key agreeKey, members []int, self int) (*agreeInst, error) {
	r.mu.Lock()
	if r.downErr != nil {
		err := r.downErr
		r.mu.Unlock()
		return nil, err
	}
	if key.epoch < r.m.epoch {
		r.mu.Unlock()
		return nil, &RankFailedError{} // membership changed: re-form and retry
	}
	seen := r.m.failed.and(setOf(members...))
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
			return nil, err
		}
	}
	<-inst.done
	return inst, inst.err
}

// settleLocked decides what the membership now lets decide. Only an
// in-process world decides locally: a TCP worker's instances wait for the
// hub. Caller holds r.mu.
func (r *recoveryState) settleLocked() {
	if r.ctrlSend == nil {
		r.insts.settle(&r.m, func(_ agreeKey, inst *agreeInst, mask rankSet, ctx int64) {
			inst.release(mask, mask.and(r.m.departed.union(r.m.gone)), ctx, nil)
		})
	}
}

// deliverDecision hands the hub's decision to its waiter, after recording
// what it says: the departures it names, and failures and gone marks this
// process has not heard of yet (raced notices), so local checks agree with
// the agreed view before anyone acts on it.
func (r *recoveryState) deliverDecision(resp agreeResp) {
	key := agreeKey{ctxKey: ctxKey{resp.Ctx, resp.Lead}, seq: resp.Seq, epoch: resp.Epoch}
	r.mu.Lock()
	inst := r.insts[key]
	delete(r.insts, key)
	for _, rank := range resp.Departed.list() {
		r.m.depart(rank)
	}
	r.mu.Unlock()
	for _, rank := range resp.Mask.minus(resp.Departed).list() {
		r.world.rankFailed(rank, resp.Epoch, fmt.Errorf("%w: rank %d (agreed)", ErrRankFailed, rank))
	}
	for _, rank := range resp.Gone.list() {
		r.world.rankGone(rank)
	}
	if inst != nil {
		inst.release(resp.Mask, resp.Departed.union(resp.Gone), resp.NewCtx, nil)
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
// (MPIX_Comm_agree specialized to the failed set): every member still
// taking part receives the identical set of world ranks that failed or
// departed, even when failures race the protocol — a member that dies
// mid-agreement is folded into the decision rather than stalling it. A
// departed member is one whose main returned nil: it will never agree, so
// it counts out the way a failed one does, but it is not recorded as
// failed. The decided instance also holds the final members and the
// restored communicator's context id (agreeInst).
// Collective over the live members; requires WithRecovery.
func (c *Comm) agree() (*agreeInst, error) {
	r := c.world.recov
	if r == nil {
		return nil, fmt.Errorf("mpi: Recover requires WithRecovery")
	}
	key := agreeKey{ctxKey: c.owner, seq: c.agreeSeq, epoch: c.epoch}
	c.agreeSeq++
	return r.agree(key, c.ranks, c.worldRank(c.rank))
}

// without builds the dense communicator of c's members outside out, a set
// every member agreed on (MPIX_Comm_shrink, with restored's decision as its
// agreement): survivors keep their relative order but are renumbered
// 0..n-1, and the new communicator has the fresh message context ctx that
// the decision carries, where stale frames of the old one never match, over
// which point-to-point and every collective work unchanged.
// Failed and departed members are both left out, so the survivors of a
// failure during a program's closing collective can re-form after their
// peers have returned. Each member computes the identical one with no
// communication.
func (c *Comm) without(out rankSet, ctx int64) (*Comm, error) {
	ranks := slices.DeleteFunc(slices.Clone(c.ranks), out.has)
	newRank := slices.Index(ranks, c.worldRank(c.rank))
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: shrink: calling rank %d is in the agreed failed set", c.rank)
	}
	return &Comm{world: c.world, ctx: ctx, owner: ctxKey{ctx, slices.Min(ranks)}, rank: newRank, ranks: ranks, epoch: c.epoch}, nil
}
