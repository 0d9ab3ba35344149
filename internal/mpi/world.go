package mpi

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// World is one SPMD execution: np ranks sharing a transport. It corresponds
// to everything set up by MPI_Init across the job.
type World struct {
	np        int
	transport Transport
	boxes     []*mailbox // receive queues, indexed by world rank
	names     []string   // processor name per world rank
	gate      func(fn func())
	epoch     time.Time     // when the world initialized; Wtime's zero point
	deadline  time.Duration // per-operation receive budget; 0 = unbounded

	// typed: the ranks share this process (Run), and whitelisted values
	// travel in memory, the fast path. Otherwise this is a wire world (TCP,
	// shm), whose transport encodes raw-encodable slices in Send.
	typed bool

	// Revoke state (see abort.go). abortedFlag is the hot-path gate: one
	// atomic load per send; the cause and the report serialization live
	// behind their own mutexes.
	abortedFlag atomic.Bool
	abortMu     sync.Mutex
	abortCause  error      // first rank-attributed failure; latched
	reportMu    sync.Mutex // serializes deadline reports (abort.go)

	// recov is non-nil under WithRecovery (recover.go); faults is the
	// installed fault injector, if any, consulted by the deadline machinery
	// to attribute stalls to injected kills.
	recov  *recoveryState
	faults *faultTransport

	// peerFailed, when set, is called once per rank recorded failed under
	// recovery: the shm transport uses it to reclaim the dead rank's
	// staging space and release blocked senders. peerRejoined is its
	// respawn counterpart: the shm transport pins the pair to a rejoined
	// rank onto the TCP fallback (the respawned process shares no segment).
	peerFailed   func(rank int)
	peerRejoined func(rank int)

	// nodeOf, when set by WithTopology, assigns each world rank to a
	// modeled node; hierMode selects whether collectives may use the
	// two-level hierarchical schedules over that assignment (see hier.go).
	// Without WithTopology the assignment is derived from names: ranks
	// sharing a processor name share a node.
	nodeOf   []int
	hierMode HierMode

	// One-sided state (win.go). winReg maps (ctx, window seq, world rank)
	// to the rank's exposed window memory on worlds where every rank shares
	// this process — the local transport's direct load/store path. shmT is
	// the rank's shm endpoint when the world runs on the shared-memory data
	// plane: windows there live in the mmap'd segment instead, and peers
	// reach them through published segment offsets.
	winReg sync.Map
	shmT   *shmTransport
}

// Option configures a Run.
type Option func(*config)

type config struct {
	names       []string
	latency     time.Duration // WithNetwork
	bandwidth   float64
	nodeOf      []int
	hierMode    HierMode
	gate        func(fn func())
	counter     *MessageCounter
	deadline    time.Duration
	faults      *FaultPlan
	faultReport *FaultReport
	recovery    bool
	respawn     bool                      // relaunch failed ranks into their old slots
	hubOpts     []HubOption               // consumed by RunTCP's internal hub
	leaseQuiet  time.Duration             // test seam: the fallback reader's quiet interval; 0 = leaseQuiet
	wrap        func(Transport) Transport // test hook: outermost decoration

	faultT *faultTransport // set by wrapTransport; handed to the World
}

// newConfig applies opts and checks what can be checked before a world of np
// ranks is built.
func newConfig(np int, opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.recovery && np > maxRecoveryRanks {
		return cfg, fmt.Errorf("%w, got %d", errRecoveryRankCap, np)
	}
	return cfg, nil
}

// wrapTransport applies configured decorations to a transport. The fault
// injector sits innermost — closest to delivery, so counters and test wraps
// observe the frames a program tried to send, faults and all.
func (c *config) wrapTransport(t Transport) Transport {
	if c.faults != nil {
		ft := newFaultTransport(t, c.faults, c.faultReport)
		c.faultT = ft
		t = ft
	}
	if c.counter != nil {
		t = &countingTransport{inner: t, mc: c.counter}
	}
	if c.wrap != nil {
		t = c.wrap(t)
	}
	return t
}

// newWorld builds a launcher's World over transport t (decorated here) and
// the mailboxes this process holds.
func (c *config) newWorld(np int, t Transport, boxes []*mailbox) *World {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	names := make([]string, np)
	for i := range names {
		names[i] = host
		if i < len(c.names) && c.names[i] != "" {
			names[i] = c.names[i]
		}
	}
	w := &World{
		np:        np,
		transport: c.wrapTransport(t),
		boxes:     boxes,
		names:     names,
		gate:      c.gate,
		epoch:     time.Now(),
		deadline:  c.deadline,
		faults:    c.faultT,
		nodeOf:    c.nodeOf,
		hierMode:  c.hierMode,
	}
	if c.recovery {
		w.recov = newRecoveryState(w, c.respawn)
	}
	return w
}

// WithProcessorNames assigns each world rank the processor (host) name it
// reports from ProcessorName. Missing entries fall back to the OS hostname.
// The cluster package uses this to place ranks on modeled nodes.
func WithProcessorNames(names []string) Option {
	return func(c *config) { c.names = names }
}

// WithNetwork models the network between the nodes of WithTopology's
// placement: a frame between ranks on different nodes is due latency after
// its link, one per directed node pair, has sent the bytes ahead of it and
// its own at bandwidth bytes per second. A bandwidth of zero or less is
// infinite. Frames within a node are free. The cluster package installs
// its platforms' inter-node latency and bandwidth through it. Only Run's
// local transport models the network; TCP and shm worlds ignore it.
func WithNetwork(latency time.Duration, bandwidth float64) Option {
	return func(c *config) { c.latency, c.bandwidth = latency, bandwidth }
}

// WithTopology assigns world rank r to modeled node nodeOf[r], overriding
// the default derivation from processor names. The node ids need not be
// dense; ranks beyond len(nodeOf) fall on node 0. The cluster package's
// Launch passes its platform placement through this option, which is what
// lets collectives select the two-level hierarchical schedules
// automatically (see WithHierarchy).
func WithTopology(nodeOf []int) Option {
	return func(c *config) {
		c.nodeOf = append([]int(nil), nodeOf...)
	}
}

// WithHierarchy selects whether collectives may replace their flat
// algorithms with the two-level hierarchical schedules (hier.go). The
// default, HierAuto, enables them exactly when the topology says they pay:
// at least two nodes, at least one of which co-locates two ranks. HierOn
// forces them whenever the communicator spans more than one node; HierOff
// pins every collective to the flat algorithms (the reference the hierarchy
// parity suite and TestHierAllreduceInterNodeMessageCount compare against).
func WithHierarchy(m HierMode) Option {
	return func(c *config) { c.hierMode = m }
}

// WithComputeGate installs a gate that every call to Comm.Compute runs
// under. The cluster package uses a counting semaphore sized to a platform's
// core count, so that (for example) four ranks on the paper's unicore Colab
// VM make progress but show no speedup.
func WithComputeGate(gate func(fn func())) Option {
	return func(c *config) { c.gate = gate }
}

// maxRespawnsPerRank bounds how many times the launcher relaunches one
// rank before giving up on it: a rank that dies deterministically on every
// attempt must eventually be marked gone for good, which sends the
// survivors down the shrink path, rather than respawned forever.
const maxRespawnsPerRank = 3

// WithRespawn opts the world into respawn recovery (implies WithRecovery):
// a rank that fails is relaunched into its old slot — same rank number, at
// the original world width — and Comm.Recover re-forms the world at full
// width instead of shrinking. The launcher (Run, RunTCP, RunShm, or mpirun
// -respawn) relaunches each rank at most maxRespawnsPerRank times, then
// marks it gone for good and every member's Recover shrinks without it. The
// respawned rank starts main from the beginning: its first operation fails
// with the retryable membership-changed error, which routes it into the
// program's recovery path (Recover + checkpoint restore) like the others.
func WithRespawn() Option {
	return func(c *config) {
		c.recovery = true
		c.respawn = true
	}
}

// Run executes main as an SPMD program on np in-process ranks, one goroutine
// per rank, and returns after every rank's main has returned: the analogue
// of "mpirun -np N prog" on a single node.
//
// If any rank returns a non-nil error or panics, the world is revoked: the
// surviving ranks' blocked receives and in-flight collectives fail with
// ErrWorldAborted instead of hanging, and Run returns the first failure,
// rank-attributed and wrapped so that errors.Is matches both
// ErrWorldAborted and the originating rank's own error.
func Run(np int, main func(c *Comm) error, opts ...Option) error {
	if np < 1 {
		return fmt.Errorf("mpi: Run needs at least 1 process, got %d", np)
	}
	cfg, err := newConfig(np, opts)
	if err != nil {
		return err
	}

	t := newLocalTransport(np)
	t.nodeOf, t.latency, t.bandwidth = cfg.nodeOf, cfg.latency, cfg.bandwidth

	w := cfg.newWorld(np, t, t.boxes)
	w.typed = true
	defer t.Close()

	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for rank := 0; rank < np; rank++ {
		go func(rank int) {
			defer wg.Done()
			err := runRank(w, rank, main)
			if cfg.respawn {
				// Respawn supervision: record the failure (interrupting the
				// survivors), clear any injected kill, restore the rank to
				// the membership, and relaunch main into the same slot. The
				// relaunched rank's first operation routes it into the
				// program's Recover + checkpoint-restore path.
				for attempt := 1; err != nil && !errors.Is(err, ErrWorldAborted) &&
					attempt <= maxRespawnsPerRank; attempt++ {
					w.rankFailed(rank, -1, err)
					if w.abortErr() != nil {
						break
					}
					if w.faults != nil {
						w.faults.revive(rank)
					}
					w.rankRejoined(rank, -1)
					err = runRank(w, rank, main)
				}
			}
			if err == nil {
				if w.recov != nil {
					// The rank returned: agreements stop waiting for it.
					w.rankDeparted(rank)
				}
				return
			}
			errs[rank] = err
			if errors.Is(err, ErrWorldAborted) {
				// Victims of the revoke do not re-abort: the cause is
				// already latched, and they must never displace the
				// originating error.
				return
			}
			if w.recov != nil {
				// Recovery mode: a failed rank is recorded, survivors are
				// interrupted with a retryable error, and the world lives on.
				// Under respawn the relaunches are spent: it is gone for good.
				w.rankFailed(rank, -1, err)
				if cfg.respawn {
					w.rankGone(rank)
				}
				return
			}
			w.abort(err)
		}(rank)
	}
	wg.Wait()
	// Recovery verdict: the run succeeded if the world was never revoked
	// and at least one rank completed — the survivors carried the
	// computation to the end; the failed ranks are the expected cost.
	if w.recov != nil && w.abortErr() == nil {
		for _, e := range errs {
			if e == nil {
				return nil
			}
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
	}
	// Report the lowest-ranked originator, deterministically: the abort
	// latch is first-wins (a race when several ranks fail independently),
	// but errs remembers every rank's own failure, and victims of the
	// revoke are distinguishable by the ErrWorldAborted identity.
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrWorldAborted) {
			return &abortError{cause: e}
		}
	}
	if err := w.abortErr(); err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runRank executes one rank's main, converting a panic to a rank-attributed
// error the same way a returned error is wrapped. Shared by Run and JoinTCP
// so a panic is observationally identical across transports.
func runRank(w *World, rank int, main func(c *Comm) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
		}
	}()
	if merr := main(w.comm(rank)); merr != nil {
		return fmt.Errorf("mpi: rank %d: %w", rank, merr)
	}
	return nil
}

// comm builds the world communicator view for one rank.
func (w *World) comm(rank int) *Comm {
	ranks := make([]int, w.np)
	for i := range ranks {
		ranks[i] = i
	}
	return &Comm{
		world:   w,
		ctx:     0,
		rank:    rank,
		ranks:   ranks,
		nextCtx: 1,
	}
}
