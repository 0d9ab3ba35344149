package mpi

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Deterministic fault injection. WithFaults layers a transport decorator
// that drops, delays, duplicates, or kills according to a seeded plan, so a
// failure scenario — the kind the paper's students hit on flaky remote
// substrates — becomes a reproducible test case instead of a war story. The
// failure suite uses it to prove the abort and deadline machinery fires
// under each fault class, and a deadlock lab can hand students a plan that
// breaks their program the same way every run.

// FaultAction is what a matched FaultRule does to a frame.
type FaultAction int

const (
	// FaultDrop discards the frame; the send succeeds, the receiver waits
	// forever — the fault class the deadline machinery exists for.
	FaultDrop FaultAction = iota + 1
	// FaultDelay sleeps on the sender before delivery, a targeted latency.
	// Delaying on the sending goroutine preserves per-pair FIFO.
	FaultDelay
	// FaultDuplicate delivers the frame twice. Protocols that count
	// messages (barriers, rings) surface the duplicate as a clean protocol
	// error; plain receives simply observe the message again.
	FaultDuplicate
	// FaultKillRank fails the sending rank: the triggering send — and every
	// later send by that rank — returns an error wrapping ErrRankKilled,
	// which propagates out of the rank's main and revokes the world, as a
	// crashed process would.
	FaultKillRank
	// FaultCorrupt flips one bit of the matched frame in flight — the low bit
	// of its last byte, a payload byte or, for an empty payload, the CRC's —
	// after the CRC is computed, so the receiver's integrity check fires.
	// On a resilient TCP session (HubSuspicion) the corruption is detected by
	// the hub, the connection is torn down, and the clean captured copy is
	// retransmitted on resume: the program never observes it. On transports
	// without frame integrity the fault downgrades to a pass-through (the
	// local and shm transports hand over the very memory the sender wrote;
	// there is no wire to corrupt).
	FaultCorrupt
	// FaultDisconnect severs the sending rank's hub connection without
	// killing the process: the socket closes mid-run, exactly like a NAT
	// timeout or a flaky home network. Under HubSuspicion the session
	// resumes within the grace window and the run completes with zero
	// failed ranks; without it, the disconnect is rank death. A no-op on
	// transports with no connection to sever.
	FaultDisconnect
)

func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultKillRank:
		return "kill-rank"
	case FaultCorrupt:
		return "corrupt"
	case FaultDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("FaultAction(%d)", int(a))
}

// corruptCapable is implemented by transports that can corrupt one frame on
// the wire below the integrity check (the resilient TCP session). The method
// reports whether the corruption was actually armed.
type corruptCapable interface {
	corruptNextFrame() bool
}

// disconnectCapable is implemented by transports whose underlying connection
// can be severed without killing the process (the TCP transport, and the shm
// transport's hub connection).
type disconnectCapable interface {
	severConnection()
}

// FaultRule selects frames by (src, dst, tag) and applies an action to
// them. Src and Dst are world ranks; AnySource (-1) matches every rank and
// AnyTag (-1) every tag, including the collectives' reserved negative tags —
// so a wildcard rule perturbs collective protocols too, deliberately.
//
// Counting makes rules deterministic: each rule passes its first SkipFirst
// matching frames through untouched, then acts on the next Count of them
// (Count 0 = unlimited). "Kill rank 1 after its 3rd send" is
// {Src: 1, SkipFirst: 3, Action: FaultKillRank}. Prob < 1 makes an armed
// rule fire with that probability, drawn from the plan's seeded generator;
// Prob 0 means always, so the zero value stays deterministic.
type FaultRule struct {
	Src, Dst, Tag int
	SkipFirst     int
	Count         int
	Prob          float64
	Action        FaultAction
	Delay         time.Duration // used by FaultDelay
}

func (r *FaultRule) matches(f frame) bool {
	if r.Src != AnySource && r.Src != f.WSrc {
		return false
	}
	if r.Dst != AnySource && r.Dst != f.Dst {
		return false
	}
	if r.Tag != AnyTag && r.Tag != f.Tag {
		return false
	}
	return true
}

// FaultPlan is a seeded set of fault rules. The same plan against the same
// program reproduces the same per-sender fault sequence: rule counters
// advance with each sender's FIFO stream, and probabilistic rules draw from
// a generator seeded with Seed. (Across concurrent senders on a shared
// local transport the interleaving of draws follows the schedule, so fully
// deterministic plans should use counting rules scoped to one sender.)
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
}

// WithFaults installs the plan's fault injector on the world's transport,
// beneath any message counter. An empty plan is free: the decorator
// forwards without taking a lock, which is what the benchmark harness pins.
func WithFaults(plan FaultPlan) Option {
	return func(c *config) {
		p := plan
		c.faults = &p
	}
}

// InjectedFault records one fault the plan actually injected: which rule
// fired, what it did, and the (src, dst, tag) of the frame it acted on.
type InjectedFault struct {
	Rule   int // index into the plan's Rules
	Action FaultAction
	Src    int // sender's world rank
	Dst    int // receiver's world rank
	Tag    int
}

func (f InjectedFault) String() string {
	return fmt.Sprintf("rule %d: %s on frame %d->%d tag %d", f.Rule, f.Action, f.Src, f.Dst, f.Tag)
}

// FaultReport collects the faults a plan injected during a run, so a test or
// postmortem can attribute an observed failure to the fault that caused it —
// in particular, a rank killed mid-collective is attributed to the injected
// kill here even when the visible symptom downstream would otherwise be a
// cascading deadline on a surviving rank. Install with WithFaultReport; safe
// for concurrent use.
type FaultReport struct {
	mu       sync.Mutex
	injected []InjectedFault
}

// Injected returns the faults injected so far, in injection order.
func (r *FaultReport) Injected() []InjectedFault {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]InjectedFault, len(r.injected))
	copy(out, r.injected)
	return out
}

func (r *FaultReport) record(f InjectedFault) {
	r.mu.Lock()
	r.injected = append(r.injected, f)
	r.mu.Unlock()
}

// WithFaultReport makes the world's fault injector record every injected
// fault into rep. Pair it with WithFaults; without a plan it is inert.
func WithFaultReport(rep *FaultReport) Option {
	return func(c *config) { c.faultReport = rep }
}

// faultTransport applies a FaultPlan to every frame a transport carries.
// In-process worlds share one instance across all ranks; each JoinTCP
// process gets its own, which only ever sees its own rank's sends.
type faultTransport struct {
	inner  Transport
	inert  bool // no rules: pure pass-through, no locking
	report *FaultReport

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []faultRuleState
	killed map[int]error // world rank -> injected kill error
}

type faultRuleState struct {
	FaultRule
	seen  int // matching frames observed
	acted int // matching frames acted on
}

func newFaultTransport(inner Transport, plan *FaultPlan, report *FaultReport) *faultTransport {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	t := &faultTransport{
		inner:  inner,
		inert:  len(plan.Rules) == 0,
		report: report,
		rng:    rand.New(rand.NewSource(seed)),
		killed: make(map[int]error),
	}
	for _, r := range plan.Rules {
		t.rules = append(t.rules, faultRuleState{FaultRule: r})
	}
	return t
}

// killedRanks returns the world ranks the plan has killed so far, sorted.
// The deadline machinery consults it to attribute downstream stalls to the
// injected kill rather than reporting a spurious deadlock.
func (t *faultTransport) killedRanks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.killed))
	for r := range t.killed {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func (t *faultTransport) Send(f frame) error {
	if t.inert {
		return t.inner.Send(f)
	}
	t.mu.Lock()
	if err := t.killed[f.WSrc]; err != nil {
		t.mu.Unlock()
		return err
	}
	var action FaultAction
	var delay time.Duration
	rule := -1
	for i := range t.rules {
		r := &t.rules[i]
		if !r.matches(f) {
			continue
		}
		r.seen++
		if r.seen <= r.SkipFirst {
			continue
		}
		if r.Count > 0 && r.acted >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && t.rng.Float64() >= r.Prob {
			continue
		}
		r.acted++
		action, delay, rule = r.Action, r.Delay, i
		break // first matching armed rule wins
	}
	if action != 0 && t.report != nil {
		t.report.record(InjectedFault{Rule: rule, Action: action, Src: f.WSrc, Dst: f.Dst, Tag: f.Tag})
	}
	if action == FaultKillRank {
		err := fmt.Errorf("%w: rank %d (fault plan, on send to rank %d tag %d)",
			ErrRankKilled, f.WSrc, f.Dst, f.Tag)
		t.killed[f.WSrc] = err
		t.mu.Unlock()
		return err
	}
	t.mu.Unlock()

	switch action {
	case FaultDrop:
		return nil
	case FaultCorrupt:
		// Arm the wire-level bit flip, then send: the transport corrupts the
		// frame's last byte after the CRC is computed, so the receiver
		// detects it. Transports without frame integrity pass the
		// frame through untouched rather than silently delivering bad data.
		if cc, ok := t.inner.(corruptCapable); ok {
			cc.corruptNextFrame()
		}
		return t.inner.Send(f)
	case FaultDisconnect:
		// Sever the connection first, then send: the send observes the
		// break (or lands in the replay buffer) and the session machinery
		// reconnects within the grace window.
		if dc, ok := t.inner.(disconnectCapable); ok {
			dc.severConnection()
		}
		return t.inner.Send(f)
	case FaultDelay:
		if delay > 0 {
			time.Sleep(delay) // on the sender: FIFO-safe
		}
		return t.inner.Send(f)
	case FaultDuplicate:
		// Each delivery copies a borrowed payload for itself, so the two
		// receivers never share a buffer.
		if err := t.inner.Send(f); err != nil {
			return err
		}
		return t.inner.Send(f)
	default:
		return t.inner.Send(f)
	}
}

func (t *faultTransport) Close() error { return t.inner.Close() }

// revive clears an injected kill for a respawned rank: the relaunched
// process gets a working transport again. The rule counters are NOT reset —
// a Count-bounded kill rule stays spent, so the respawned rank is not
// immediately re-killed by the same rule.
func (t *faultTransport) revive(rank int) {
	if t.inert {
		return
	}
	t.mu.Lock()
	delete(t.killed, rank)
	t.mu.Unlock()
}
