package mpi

import (
	"errors"
	"fmt"
	"os"
	"slices"
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
	nextCtx   []int64       // each world rank's next free Split context id (split.go)

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
	relaunches  int                       // the relaunch budget: times a failed rank is relaunched into its old slot
	hubOpts     []HubOption               // consumed by RunTCP's internal hub
	leaseQuiet  time.Duration             // test seam: the fallback reader's quiet interval; 0 = leaseQuiet
	wrap        func(Transport) Transport // test hook: outermost decoration

	faultT *faultTransport // set by wrapTransport; handed to the World
}

// newConfig applies opts.
func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
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
		nextCtx:   make([]int64, np),
		gate:      c.gate,
		epoch:     time.Now(),
		deadline:  c.deadline,
		faults:    c.faultT,
		nodeOf:    c.nodeOf,
		hierMode:  c.hierMode,
	}
	if c.recovery {
		w.recov = newRecoveryState(w)
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

// WithRespawn is WithRecovery with a relaunch budget: a rank that fails is
// relaunched into its old slot — same rank number, at the original world
// width — and Comm.Recover re-forms the world at full width. The launcher
// (Run, RunTCP, RunShm, or mpirun -respawn) relaunches each rank at most
// maxRespawnsPerRank times, then marks it gone for good and every member's
// Recover shrinks without it, as under WithRecovery. The respawned rank
// starts main from the beginning: its first operation fails with the
// retryable membership-changed error, which routes it into the program's
// recovery path (Recover + checkpoint restore) like the others.
func WithRespawn() Option {
	return func(c *config) {
		c.recovery = true
		c.relaunches = maxRespawnsPerRank
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
	cfg := newConfig(opts)
	t := newLocalTransport(np)
	t.nodeOf, t.latency, t.bandwidth = cfg.nodeOf, cfg.latency, cfg.bandwidth

	w := cfg.newWorld(np, t, t.boxes)
	w.typed = true
	defer t.Close()
	if w.recov != nil {
		w.recov.m.final = cfg.relaunches == 0 // the ranks' shared state coordinates
	}

	// One incarnation of a rank, with the world-side bookkeeping around it:
	// a relaunch clears the injected kill and restores the rank to the
	// membership (its first operation routes it into the program's
	// Recover + checkpoint-restore path); a rank that returns nil departs;
	// a failure is recorded (recovery: the survivors are interrupted with a
	// retryable error and the world lives on) or revokes the world. Victims
	// of the revoke do not re-abort: they must never displace the cause.
	start := func(rank int, rejoin bool) error {
		if rejoin {
			if w.faults != nil {
				w.faults.revive(rank)
			}
			w.rankRejoined(rank, -1)
		}
		err := runRank(w, rank, main)
		switch {
		case err == nil:
			if w.recov != nil {
				w.rankDeparted(rank)
			}
		case errors.Is(err, ErrWorldAborted):
		case w.recov != nil:
			w.rankFailed(rank, -1, err)
		default:
			w.abort(err)
			return &abortError{cause: err}
		}
		return err
	}
	live := func() bool { return w.abortErr() == nil }
	errs := supervise(np, cfg.relaunches, live, w.rankGone, start)
	return verdict(errs, w.abortErr(), w.recov != nil)
}

// supervise runs each of np ranks on its own goroutine through start, which
// runs one incarnation to its end (rejoin: a relaunch into the rank's old
// slot), and returns each rank's last error. It is the one relaunch policy
// of every launcher (Run, RunTCP, RunShm, and mpirun through Hub.Supervise):
// an incarnation that failed — neither returned nil nor fell to the world's
// revoke — is relaunched while live reports the world running, at most
// budget times (0 under WithRecovery); then gone marks the rank gone for
// good at once, and every survivor's Recover shrinks without it.
func supervise(np, budget int, live func() bool, gone func(rank int), start func(rank int, rejoin bool) error) []error {
	failed := func(err error) bool { return err != nil && !errors.Is(err, ErrWorldAborted) }
	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for rank := range np {
		go func() {
			defer wg.Done()
			err := start(rank, false)
			for n := 0; failed(err) && n < budget && live(); n++ {
				err = start(rank, true)
			}
			if failed(err) {
				gone(rank)
			}
			errs[rank] = err
		}()
	}
	wg.Wait()
	return errs
}

// verdict picks the error a launcher returns from its ranks' last errors and
// the world's own (nil when it wound down cleanly). A recovery world that
// wound down cleanly with a rank finished succeeded: the survivors carried
// the computation to the end, the failed ranks are the expected cost.
// Otherwise the lowest-ranked originator wins, deterministically (the abort
// latch is first-wins, a race when several ranks fail independently), then
// the world's error, then the lowest-ranked victim. A victim's error carries
// the revoke that reached it (ErrWorldAborted inside the rank's wrapping); an
// originator's is its own failure, a bare *abortError when it revoked the
// world, as Run's ranks and joinHub return it.
func verdict(errs []error, worldErr error, recovery bool) error {
	if recovery && worldErr == nil && slices.Contains(errs, nil) {
		return nil
	}
	var victim error
	for _, e := range errs {
		switch _, own := e.(*abortError); {
		case e == nil:
		case own || !errors.Is(e, ErrWorldAborted):
			return e
		case victim == nil:
			victim = e
		}
	}
	if worldErr != nil {
		return worldErr
	}
	return victim
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
	return &Comm{world: w, rank: rank, ranks: ranks}
}
