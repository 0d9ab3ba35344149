// Command mpirun launches SPMD programs on the message-passing runtime,
// mirroring the mpirun invocations the notebook's shell cells use.
//
// Usage:
//
//	mpirun -np 4 mpiSpmd                        # in-process ranks
//	mpirun -np 4 -platform colab mpiSpmd        # on a modeled platform
//	mpirun -np 4 -transport tcp mpiRing         # loopback TCP transport
//	mpirun -np 4 -transport procs mpiRing       # one OS process per rank
//	mpirun -np 4 -transport shm mpiRing         # OS processes + shared-memory rings
//	mpirun -np 8 -topology 2x4 forestfire       # model 2 nodes × 4 slots: two-level collectives
//	mpirun -np 8 -topology 2x4 -hier off mpiRing # same placement, flat algorithms
//	mpirun -np 4 -deadline 5s mpiRing           # diagnose stalls, don't hang
//	mpirun -np 8 forestfire | drugdesign | integration | pagerank
//	mpirun -np 4 integration n=1000             # an exemplar's key=value args
//	mpirun -np 4 -recover -kill-rank 2 forestfire   # survive the kill, exit 0
//	mpirun -np 4 -respawn -kill-rank 2 forestfire   # relaunch the rank, finish at full width
//
// A program is a message-passing patternlet or an exemplar of the catalog
// (internal/exemplars), whose trailing key=value args override the defaults
// of the form it runs (integration n; under -recover or -respawn,
// ckpt_every, how often the run checkpoints; ...). A key that form does not
// read, or a value that is not a positive integer, is a launcher error.
//
// With -transport procs the launcher starts a TCP hub and re-executes
// itself once per rank in worker mode, so the ranks really are separate OS
// processes exchanging messages over the network — a single-machine Beowulf.
//
// -transport shm is procs with a faster data plane: the launcher also
// creates a shared-memory segment (under /dev/shm when available) and the
// worker processes exchange user and collective messages through mmap-backed
// rings — eagerly up to 16 KiB, via staged rendezvous blocks above it —
// while formation, heartbeats, aborts, and recovery still ride the hub. A
// rank that cannot map the segment (a remote host, say) falls back to TCP
// for its pairs.
//
// -recover and -respawn (mutually exclusive) run the world in
// survive-and-continue mode (ULFM-style): the exemplars with a
// checkpoint-restart form (drugdesign, forestfire, pagerank) switch to it,
// and a rank killed by -kill-rank/-kill-after no longer poisons the world. The two
// differ only in the relaunch budget. Under -recover it is 0: the rank is
// gone at its failure, the survivors shrink past it, and a recovered run
// exits 0. Under -respawn the launcher relaunches the dead rank into its
// old slot up to three times (a new goroutine in-process, a new OS process
// under -transport procs/shm, which rejoins the hub over TCP), and the world
// continues at the ORIGINAL width from the last committed checkpoint; a
// world that had to fall back to the survivors exits 3. -ckpt points the
// checkpoint store at a directory (required state for -transport procs;
// in-memory otherwise).
//
// -topology NxM places the np ranks blockwise on N modeled nodes of M slots
// each (rank r lands on node r/M) and publishes the placement to the
// runtime, which switches its collectives to the two-level hierarchical
// schedules: intra-node phases stay on the cheap transport and only one
// leader per node crosses the node boundary. -hier picks the selection
// policy — auto (hierarchy when the topology is multi-node with co-located
// ranks), on, or off. -topology is mutually exclusive with -platform, which
// carries its own placement.
//
// -suspicion D arms resilient TCP sessions on the hub transports (tcp,
// procs, shm): a worker whose connection merely breaks is suspected for up
// to D — its traffic parks in a replay buffer while it redials and resumes
// — and only a worker that stays gone past D is declared failed.
//
// Exit codes (internal/verdict, shared with schedd and jobctl) distinguish
// failure classes, so scripts (and autograders) can tell a user mistake
// from a runtime failure:
//
//	0  success (including runs that recovered from rank failures)
//	1  launcher error (unknown program, platform, I/O)
//	2  usage error
//	3  a rank failed: the world was aborted (includes deadline reports)
//	4  the world never formed within the join timeout
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/exemplars"
	"repro/internal/mpi"
	"repro/internal/patternlets"
	"repro/internal/verdict"
)

// Environment variables of worker mode.
const (
	envHub       = "MPIRUN_HUB"
	envRank      = "MPIRUN_RANK"
	envNP        = "MPIRUN_NP"
	envProg      = "MPIRUN_PROG" // the program and its key=value args, space-separated
	envDeadline  = "MPIRUN_DEADLINE"
	envRecover   = "MPIRUN_RECOVER" // the recovery mode: modeRecover or modeRespawn
	envRejoin    = "MPIRUN_REJOIN"
	envCkpt      = "MPIRUN_CKPT"
	envKillRank  = "MPIRUN_KILL_RANK"
	envKillAfter = "MPIRUN_KILL_AFTER"
	envShmSeg    = "MPIRUN_SHM"
	envTopology  = "MPIRUN_TOPOLOGY"
	envHier      = "MPIRUN_HIER"
)

func main() {
	if os.Getenv(envHub) != "" {
		if err := workerMode(); err != nil {
			fmt.Fprintln(os.Stderr, "mpirun worker:", err)
			os.Exit(verdict.ExitCode(err))
		}
		return
	}

	var (
		np          = flag.Int("np", 4, "number of processes")
		platform    = flag.String("platform", "", "modeled platform (pi, colab, chameleon, stolaf)")
		transport   = flag.String("transport", "local", "local (goroutine ranks), tcp (loopback TCP), procs (separate OS processes), or shm (OS processes over shared-memory rings)")
		deadline    = flag.Duration("deadline", 0, "per-operation receive deadline; a stall becomes a blocked-ranks report instead of a hang (0 disables)")
		joinTimeout = flag.Duration("join-timeout", 30*time.Second, "how long tcp/procs worlds may take to assemble before failing with the missing ranks")
		recoverFlag = flag.Bool("recover", false, "survive-and-continue mode: rank failures shrink the world instead of aborting it ("+recoverable()+")")
		respawnFlag = flag.Bool("respawn", false, "respawn recovery: a failed rank is relaunched into its old slot and the world finishes at the original width ("+recoverable()+"); exits 3 if it had to fall back to the survivors")
		suspicion   = flag.Duration("suspicion", 0, "resilient sessions on tcp/procs/shm: a broken worker connection is suspected for this long (replay buffer + redial/resume) before the rank is declared failed (0 disables)")
		ckptDir     = flag.String("ckpt", "", "checkpoint directory for -recover (in-memory when empty; a temp dir for -transport procs)")
		killRank    = flag.Int("kill-rank", -1, "fault injection: kill this rank (requires -recover to survive it)")
		killAfter   = flag.Int("kill-after", 0, "fault injection: let the victim's first N sends through before the kill")
		topology    = flag.String("topology", "", "model an NxM cluster: place the np ranks blockwise on N nodes of M slots each, enabling topology-aware two-level collectives (mutually exclusive with -platform)")
		hier        = flag.String("hier", "auto", "hierarchical collective selection: auto (two-level when the topology is multi-node with co-located ranks), on, or off")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mpirun -np N [-platform P] [-transport local|tcp|procs|shm] [-topology NxM] [-hier auto|on|off] [-deadline D] [-suspicion D] [-recover|-respawn [-kill-rank R]] <program> [key=value ...]\n-recover and -respawn run "+recoverable())
		os.Exit(verdict.ExitUsage)
	}
	prog, args := flag.Arg(0), flag.Args()[1:]

	// The transport × recovery flag matrix is validated centrally (shared
	// with schedd/jobctl), so every launcher rejects the same conflicts
	// with the same exit code.
	exitOn(verdict.LaunchFlags{
		NP:        *np,
		Transport: *transport,
		Platform:  *platform,
		Topology:  *topology,
		Hier:      *hier,
		Recover:   *recoverFlag,
		Respawn:   *respawnFlag,
		KillRank:  *killRank,
	}.Validate())
	hierMode, _ := verdict.ParseHier(*hier) // Validate has parsed -hier and -topology

	var opts []mpi.Option
	if *topology != "" {
		nodes, _ := verdict.ParseTopology(*topology, *np)
		opts = append(opts, mpi.WithTopology(nodes))
	}
	if hierMode != mpi.HierAuto {
		opts = append(opts, mpi.WithHierarchy(hierMode))
	}
	if *deadline > 0 {
		opts = append(opts, mpi.WithDeadline(*deadline))
	}
	if *killRank >= 0 {
		opts = append(opts, mpi.WithFaults(killPlan(*killRank, *killAfter)))
	}

	mode := ""
	switch {
	case *recoverFlag:
		mode = modeRecover
	case *respawnFlag:
		mode = modeRespawn
	}
	procs := *transport == "procs" || *transport == "shm"
	var store ckpt.Store // worker processes open their own file store
	var err error
	if mode != "" && !procs {
		store, err = chooseStore(*ckptDir)
	}
	body, modeOpts, berr := programBody(prog, args, mode, store)
	opts = append(opts, modeOpts...)
	exitOn(errors.Join(err, berr)) // exit 1: none of these is a runtime failure

	launch := mpi.Run
	switch {
	case procs:
		exitOn(runProcs(*np, strings.Join(flag.Args(), " "), *deadline, *joinTimeout, *suspicion, *transport == "shm", *topology, *hier, procsRecovery{
			mode:      mode,
			ckptDir:   *ckptDir,
			killRank:  *killRank,
			killAfter: *killAfter,
		}))
		return
	case *transport == "tcp":
		hubOpts := []mpi.HubOption{mpi.HubFormationTimeout(*joinTimeout)}
		if *suspicion > 0 {
			hubOpts = append(hubOpts, mpi.HubSuspicion(*suspicion))
		}
		opts = append(opts, mpi.WithHubOptions(hubOpts...))
		launch = mpi.RunTCP
	case *transport != "local":
		fmt.Fprintf(os.Stderr, "mpirun: unknown transport %q\n", *transport)
		os.Exit(verdict.ExitUsage)
	case *platform != "":
		plat, err := cluster.Lookup(*platform)
		exitOn(err)
		launch = plat.Launch
	}
	if mode == modeRespawn {
		exitOn(runRespawn(launch, *np, body, opts))
		return
	}
	exitOn(launch(*np, body, opts...))
}

// runRespawn launches a respawn-mode world in-process and enforces the
// full-width contract: the run succeeds only if every rank of the original
// world (respawned incarnations included) finished the job. A world that
// completed on the shrink fallback returns verdict.ErrNotFullWidth, which
// maps to exit code 3 — "the job finished but a rank was never restored".
func runRespawn(launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, body func(c *mpi.Comm) error, opts []mpi.Option) error {
	var mu sync.Mutex
	finished := map[int]bool{}
	wrapped := func(c *mpi.Comm) error {
		err := body(c)
		if err == nil {
			mu.Lock()
			finished[c.Rank()] = true
			mu.Unlock()
		}
		return err
	}
	if err := launch(np, wrapped, opts...); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(finished) != np {
		return fmt.Errorf("%w: %d/%d ranks finished", verdict.ErrNotFullWidth, len(finished), np)
	}
	return nil
}

// killPlan builds the seeded single-victim fault plan of -kill-rank. The
// rule fires once: it takes down the victim's first incarnation, and under
// -respawn the relaunch re-enters the world with the rule spent, so it is
// not deterministically re-killed.
func killPlan(rank, after int) mpi.FaultPlan {
	return mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: rank, Dst: mpi.AnySource, Tag: mpi.AnyTag,
		SkipFirst: after,
		Count:     1,
		Action:    mpi.FaultKillRank,
	}}}
}

// chooseStore picks the checkpoint store for in-process transports: shared
// memory by default, a directory when the user wants the checkpoints kept.
func chooseStore(dir string) (ckpt.Store, error) {
	if dir == "" {
		return ckpt.NewMemStore(), nil
	}
	return ckpt.NewFileStore(dir)
}

// recoverBody resolves an exemplar's checkpoint-restart form. Its printed
// line counts the ranks as "survivors" under -recover (the world shrinks)
// and as the "width" under -respawn (the world relaunches).
func recoverBody(prog string, args []string, respawn bool, store ckpt.Store) (func(c *mpi.Comm) error, error) {
	flagName, label := "-recover", "survivors"
	if respawn {
		flagName, label = "-respawn", "width"
	}
	e, err := exemplars.Lookup(prog)
	if err != nil || e.Recover == nil {
		return nil, fmt.Errorf("%s supports %s, not %q", flagName, recoverable(), prog)
	}
	a, err := exemplarArgs(e, args, true)
	if err != nil {
		return nil, err
	}
	return e.RecoverBody(os.Stdout, a, store, label), nil
}

// recoverable lists the exemplars with a checkpoint-restart form.
func recoverable() string {
	var names []string
	for _, e := range exemplars.All() {
		if e.Recover != nil {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, ", ")
}

// exitOn ends mpirun with err's exit code (verdict.ExitCode) when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun:", err)
		os.Exit(verdict.ExitCode(err))
	}
}

// resolveProgram maps a program name to its per-rank body: an exemplar of
// the catalog with its key=value args, or a message-passing patternlet,
// which takes none.
func resolveProgram(name string, args []string) (func(c *mpi.Comm) error, error) {
	if e, err := exemplars.Lookup(name); err == nil {
		a, err := exemplarArgs(e, args, false)
		if err != nil {
			return nil, err
		}
		return e.Body(os.Stdout, a), nil
	}
	p, err := patternlets.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("unknown program %q (use a message-passing patternlet name or an exemplar)", name)
	}
	if p.RunRank == nil {
		return nil, fmt.Errorf("%q is a shared-memory patternlet; use cmd/patternlet for it", name)
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("patternlet %q takes no arguments, got %q", name, args)
	}
	sw := patternlets.NewSyncWriter(os.Stdout)
	return func(c *mpi.Comm) error { return p.RunRank(sw, c) }, nil
}

// exemplarArgs applies trailing key=value args to the exemplar form it runs.
func exemplarArgs(e exemplars.Exemplar, args []string, recover bool) (exemplars.Args, error) {
	set := make(map[string]string, len(args))
	for _, kv := range args {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%s: argument %q is not key=value", e.Name, kv)
		}
		set[k] = v
	}
	return e.Args(set, recover)
}

// The recovery modes, as worker processes read them from envRecover:
// -recover's relaunch budget of 0, or -respawn's.
const (
	modeRecover = "recover"
	modeRespawn = "respawn"
)

// programBody resolves prog and its args to the per-rank body of a recovery
// mode ("" for none, which needs no store) and the world options it runs with.
func programBody(prog string, args []string, mode string, store ckpt.Store) (func(c *mpi.Comm) error, []mpi.Option, error) {
	switch mode {
	case modeRecover:
		body, err := recoverBody(prog, args, false, store)
		return body, []mpi.Option{mpi.WithRecovery()}, err
	case modeRespawn:
		body, err := recoverBody(prog, args, true, store)
		return body, []mpi.Option{mpi.WithRespawn()}, err
	}
	body, err := resolveProgram(prog, args)
	return body, nil, err
}

// procsRecovery carries the -recover/-respawn configuration into runProcs.
// The zero value (no mode) means a plain (non-recovery) job.
type procsRecovery struct {
	mode      string // modeRecover, modeRespawn, or "" for a plain job
	ckptDir   string
	killRank  int
	killAfter int
}

// runProcs starts a hub and one OS process per rank (re-executing this
// binary in worker mode on progLine, the program and its key=value args),
// then waits for the job. The hub's error is
// authoritative when the world fails: it names the failing or missing rank,
// where a worker's exit status only says that its process died.
//
// Under -recover and -respawn the hub runs in survive-and-continue mode and
// its supervisor (Hub.Supervise, the relaunch policy of every launcher)
// spends the relaunch budget: -respawn relaunches a process that dies while
// the job runs into its old rank slot, at most three times, over plain TCP
// (RejoinTCP: a new process shares no shm segment with the survivors);
// -recover relaunches none. A rank whose budget is spent is gone for good
// at once, so the survivors shrink without waiting out -join-timeout. A
// -recover job succeeds if the hub wound down cleanly and a survivor
// finished; a -respawn job only if every rank's last incarnation finished,
// else it returns verdict.ErrNotFullWidth (exit code 3).
//
// With shm set the launcher additionally creates a shared-memory segment
// the workers map as their data plane (-transport shm); the hub and its
// formation timeout work exactly as for procs, so a rank that never starts
// still fails the job fast with the missing rank named (exit code 4).
func runProcs(np int, progLine string, deadline, joinTimeout, suspicion time.Duration, shm bool, topo, hier string, rec procsRecovery) error {
	segPath := ""
	if shm {
		seg, err := mpi.CreateShmSegment("", np)
		if err != nil {
			return err
		}
		defer os.Remove(seg)
		segPath = seg
	}
	hubOpts := []mpi.HubOption{mpi.HubFormationTimeout(joinTimeout)}
	if suspicion > 0 {
		hubOpts = append(hubOpts, mpi.HubSuspicion(suspicion))
	}
	if rec.mode != "" {
		hubOpts = append(hubOpts, mpi.HubRecovery())
		if rec.ckptDir == "" {
			// Separate processes need a shared store; default to a temp dir.
			dir, err := os.MkdirTemp("", "mpirun-ckpt-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			rec.ckptDir = dir
		}
	}
	hub, err := mpi.StartHub("127.0.0.1:0", np, hubOpts...)
	if err != nil {
		return err
	}
	defer hub.Close()

	self, err := os.Executable()
	if err != nil {
		return err
	}
	// startRank launches one incarnation of a rank. A rejoin (respawn
	// relaunch) re-admits into the running world over plain TCP: no shm
	// segment, and no fault env — the injected kill already did its work.
	startRank := func(rank int, rejoin bool) (*exec.Cmd, error) {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			envHub+"="+hub.Addr(),
			envRank+"="+strconv.Itoa(rank),
			envNP+"="+strconv.Itoa(np),
			envProg+"="+progLine,
			envDeadline+"="+deadline.String(),
		)
		if topo != "" {
			cmd.Env = append(cmd.Env, envTopology+"="+topo)
		}
		if hier != "" && hier != "auto" {
			cmd.Env = append(cmd.Env, envHier+"="+hier)
		}
		if segPath != "" && !rejoin {
			cmd.Env = append(cmd.Env, envShmSeg+"="+segPath)
		}
		if rec.mode != "" {
			cmd.Env = append(cmd.Env,
				envRecover+"="+rec.mode,
				envCkpt+"="+rec.ckptDir,
			)
			if !rejoin {
				cmd.Env = append(cmd.Env,
					envKillRank+"="+strconv.Itoa(rec.killRank),
					envKillAfter+"="+strconv.Itoa(rec.killAfter),
				)
			}
		}
		if rejoin {
			cmd.Env = append(cmd.Env, envRejoin+"=1")
		}
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting rank %d: %w", rank, err)
		}
		return cmd, nil
	}

	cmds := make([]*exec.Cmd, np)
	for rank := 0; rank < np; rank++ {
		cmd, err := startRank(rank, false)
		if err != nil {
			return err
		}
		cmds[rank] = cmd
	}

	var respawned atomic.Int64 // relaunched processes, over every rank's goroutine
	respawn := rec.mode == modeRespawn
	rankErrs := hub.Supervise(respawn, func(rank int, rejoin bool) error {
		cmd := cmds[rank]
		if rejoin {
			nc, err := startRank(rank, true)
			if err != nil {
				return err
			}
			cmd = nc
			respawned.Add(1)
		}
		return cmd.Wait()
	})

	okCount := 0
	var cmdErr error
	for rank, err := range rankErrs {
		if err != nil {
			if cmdErr == nil {
				cmdErr = fmt.Errorf("rank %d: %w", rank, err)
			}
		} else {
			okCount++
		}
	}
	if err := hub.Wait(); err != nil {
		return err
	}
	if respawn {
		// Full-width contract: every rank's final incarnation must have
		// finished, respawned or not.
		if okCount == np {
			if n := respawned.Load(); n > 0 {
				fmt.Printf("mpirun: respawned %d process(es); world finished at full width %d/%d\n", n, okCount, np)
			}
			return nil
		}
		return fmt.Errorf("%w: %d/%d processes finished", verdict.ErrNotFullWidth, okCount, np)
	}
	if rec.mode != "" && okCount > 0 {
		if failed := hub.FailedRanks(); len(failed) > 0 {
			fmt.Printf("mpirun: recovered from failed rank(s) %v; %d/%d processes finished\n", failed, okCount, np)
		}
		return nil
	}
	return cmdErr
}

// workerMode is the re-executed half of -transport procs.
func workerMode() error {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envRank, err)
	}
	np, err := strconv.Atoi(os.Getenv(envNP))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envNP, err)
	}
	var opts []mpi.Option
	if d, err := time.ParseDuration(os.Getenv(envDeadline)); err == nil && d > 0 {
		opts = append(opts, mpi.WithDeadline(d))
	}
	if spec := os.Getenv(envTopology); spec != "" {
		nodes, terr := verdict.ParseTopology(spec, np)
		if terr != nil {
			return terr
		}
		opts = append(opts, mpi.WithTopology(nodes))
	}
	if hm := os.Getenv(envHier); hm != "" {
		mode, herr := verdict.ParseHier(hm)
		if herr != nil {
			return herr
		}
		opts = append(opts, mpi.WithHierarchy(mode))
	}
	mode := os.Getenv(envRecover)
	var store ckpt.Store
	if mode != "" {
		if store, err = ckpt.NewFileStore(os.Getenv(envCkpt)); err != nil {
			return err
		}
		if kr, kerr := strconv.Atoi(os.Getenv(envKillRank)); kerr == nil && kr >= 0 {
			ka, _ := strconv.Atoi(os.Getenv(envKillAfter))
			opts = append(opts, mpi.WithFaults(killPlan(kr, ka)))
		}
	}
	prog, args, _ := strings.Cut(os.Getenv(envProg), " ")
	body, modeOpts, err := programBody(prog, strings.Fields(args), mode, store)
	if err != nil {
		return err
	}
	opts = append(opts, modeOpts...)
	if os.Getenv(envRejoin) != "" {
		// A relaunched incarnation: re-admit into the old rank slot of the
		// running world, over plain TCP even when the world uses shm.
		return mpi.RejoinTCP(os.Getenv(envHub), rank, np, body, opts...)
	}
	if seg := os.Getenv(envShmSeg); seg != "" {
		return mpi.JoinShm(os.Getenv(envHub), seg, rank, np, body, opts...)
	}
	return mpi.JoinTCP(os.Getenv(envHub), rank, np, body, opts...)
}
