package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
	"repro/internal/verdict"
)

// every3 checkpoints a recovery run every 3 units of work.
var every3 = []string{"ckpt_every=3"}

func TestResolveProgramPatternlets(t *testing.T) {
	for _, name := range []string{"mpiSpmd", "mpiRing", "mpiBroadcast"} {
		body, err := resolveProgram(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := mpi.Run(3, body); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
}

func TestResolveProgramExemplars(t *testing.T) {
	for _, name := range []string{"integration", "drugdesign", "forestfire", "pagerank"} {
		if _, err := resolveProgram(name, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestResolveProgramRejections(t *testing.T) {
	if _, err := resolveProgram("noSuchThing", nil); err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("unknown program err = %v", err)
	}
	// Shared-memory patternlets are not mpirun-able.
	if _, err := resolveProgram("spmd", nil); err == nil || !strings.Contains(err.Error(), "shared-memory") {
		t.Fatalf("shared-memory patternlet err = %v", err)
	}
}

// TestExitCodes: the launcher's exit-code contract — scripts must be able
// to tell a user mistake from a rank failure from a world that never
// assembled.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, verdict.ExitOK},
		{"launcher", errors.New("unknown program"), verdict.ExitLauncher},
		{"formation", fmt.Errorf("wrapped: %w", mpi.ErrFormationTimeout), verdict.ExitFormation},
	}
	for _, tc := range cases {
		if got := verdict.ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: verdict.ExitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}

	// A real rank failure, as Run reports it, maps to the rank-failure code.
	deliberate := errors.New("boom")
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			return deliberate
		}
		_, rerr := c.Recv(1, 0, nil)
		return rerr
	})
	if got := verdict.ExitCode(err); got != verdict.ExitRank {
		t.Errorf("rank failure: verdict.ExitCode(%v) = %d, want %d", err, got, verdict.ExitRank)
	}

	// A deadline report maps to the rank-failure code too: the program is
	// at fault, not the launcher.
	derr := mpi.Run(2, func(c *mpi.Comm) error {
		_, rerr := c.Recv(1-c.Rank(), 0, nil)
		return rerr
	}, mpi.WithDeadline(50*time.Millisecond))
	if got := verdict.ExitCode(derr); got != verdict.ExitRank {
		t.Errorf("deadline: verdict.ExitCode(%v) = %d, want %d", derr, got, verdict.ExitRank)
	}
}

// TestRecoverBodyResolution: only the checkpoint-restart exemplars have
// recovery variants; everything else is a launcher error naming -recover.
func TestRecoverBodyResolution(t *testing.T) {
	checkBodyResolution(t, false, "-recover")
}

// TestRespawnBodyResolution: -respawn resolves the same exemplars through the
// same table, and its rejection names -respawn.
func TestRespawnBodyResolution(t *testing.T) {
	checkBodyResolution(t, true, "-respawn")
}

func checkBodyResolution(t *testing.T, respawn bool, flagName string) {
	t.Helper()
	store := ckpt.NewMemStore()
	for _, name := range []string{"forestfire", "drugdesign", "pagerank"} {
		if _, err := recoverBody(name, every3, respawn, store); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"integration", "mpiRing", "noSuchThing"} {
		if _, err := recoverBody(name, every3, respawn, store); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Fatalf("%s: want an error naming %s, got %v", name, flagName, err)
		}
	}
}

// TestRecoverRunEndToEnd: the exact body mpirun -recover launches survives a
// seeded kill in-process and the launcher-level run reports success — the
// exit-0-on-recovery contract, minus the process boundary.
func TestRecoverRunEndToEnd(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", every3, false, store)
	if err != nil {
		t.Fatal(err)
	}
	runErr := mpi.Run(4, body,
		mpi.WithRecovery(),
		mpi.WithFaults(killPlan(2, 5)))
	if runErr != nil {
		t.Fatalf("recovered run should succeed, got %v", runErr)
	}
	if got := verdict.ExitCode(runErr); got != verdict.ExitOK {
		t.Fatalf("verdict.ExitCode(recovered) = %d, want %d", got, verdict.ExitOK)
	}
}

// TestRespawnRunEndToEnd: the exact body and verdict mpirun -respawn uses —
// a seeded one-shot kill, the rank relaunched into its slot, and the
// full-width check passing — maps to exit 0.
func TestRespawnRunEndToEnd(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", every3, true, store)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runRespawn(mpi.Run, 4, body, []mpi.Option{
		mpi.WithRespawn(),
		mpi.WithFaults(killPlan(2, 5)),
	})
	if runErr != nil {
		t.Fatalf("respawned run should succeed, got %v", runErr)
	}
	if got := verdict.ExitCode(runErr); got != verdict.ExitOK {
		t.Fatalf("verdict.ExitCode(respawned) = %d, want %d", got, verdict.ExitOK)
	}
}

// TestRespawnNotFullWidth: an unlimited kill rule re-kills every relaunch,
// so the respawn budget runs out, the launcher marks the rank gone for good,
// and every survivor's Recover shrinks at once — no wait anywhere. The
// launcher must report that as verdict.ErrNotFullWidth, exit 3, even though the
// runtime itself reports a recovered (nil-error) run.
func TestRespawnNotFullWidth(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", every3, true, store)
	if err != nil {
		t.Fatal(err)
	}
	plan := killPlan(2, 5)
	plan.Rules[0].Count = 0 // unlimited: every incarnation dies
	runErr := runRespawn(mpi.Run, 4, body, []mpi.Option{
		mpi.WithRespawn(),
		mpi.WithFaults(plan),
	})
	if !errors.Is(runErr, verdict.ErrNotFullWidth) {
		t.Fatalf("want verdict.ErrNotFullWidth, got %v", runErr)
	}
	if got := verdict.ExitCode(runErr); got != verdict.ExitRank {
		t.Fatalf("verdict.ExitCode(not full width) = %d, want %d", got, verdict.ExitRank)
	}
}

// TestRespawnKillPlanShape: -respawn's kill rule is one-shot, so the
// relaunched incarnation is not deterministically re-killed.
func TestRespawnKillPlanShape(t *testing.T) {
	plan := killPlan(2, 4)
	if len(plan.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(plan.Rules))
	}
	r := plan.Rules[0]
	if r.Src != 2 || r.SkipFirst != 4 || r.Count != 1 || r.Action != mpi.FaultKillRank {
		t.Fatalf("rule = %+v", r)
	}
}

// TestKillPlanShape: -kill-rank builds a single one-shot rule targeting
// exactly the victim's sends, under -recover and -respawn alike: a
// relaunched incarnation is not deterministically re-killed.
func TestKillPlanShape(t *testing.T) {
	plan := killPlan(3, 7)
	if len(plan.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(plan.Rules))
	}
	r := plan.Rules[0]
	if r.Src != 3 || r.SkipFirst != 7 || r.Count != 1 || r.Action != mpi.FaultKillRank {
		t.Fatalf("rule = %+v", r)
	}
}

// TestChooseStore: in-memory by default, file-backed when a directory is
// named.
func TestChooseStore(t *testing.T) {
	if s, err := chooseStore(""); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*ckpt.MemStore); !ok {
		t.Fatalf("empty dir: got %T, want *ckpt.MemStore", s)
	}
	dir := t.TempDir()
	if s, err := chooseStore(dir); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*ckpt.FileStore); !ok {
		t.Fatalf("dir: got %T, want *ckpt.FileStore", s)
	}
}

// TestShmBodiesEndToEnd: the exact bodies mpirun resolves run unchanged on
// the shared-memory transport — the in-process half of -transport shm
// (worker processes call JoinShm with the same bodies and options).
func TestShmBodiesEndToEnd(t *testing.T) {
	for _, name := range []string{"mpiRing", "integration"} {
		body, err := resolveProgram(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := mpi.RunShm(4, body); errors.Is(err, mpi.ErrShmUnsupported) {
			t.Skip("shared-memory transport unsupported on this platform")
		} else if err != nil {
			t.Fatalf("%s over shm: %v", name, err)
		}
	}
}

// buildMpirun compiles the real launcher binary so the flag-matrix test can
// exercise the actual exit codes — including the process-respawn path,
// which re-executes the binary and so cannot run inside the test process.
func buildMpirun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mpirun")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building mpirun: %v\n%s", err, out)
	}
	return bin
}

// TestRespawnFlagMatrix drives the built binary through the -respawn flag
// matrix: a seeded kill with -kill-rank/-ckpt recovers at full width (exit
// 0) across transports — including -transport procs, where the relaunch is
// a genuinely new OS process rejoining over TCP — and the usage and
// program-resolution failures exit 2 and 1.
func TestRespawnFlagMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the launcher binary")
	}
	bin := buildMpirun(t)
	cases := []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string // substring of combined output, "" = don't care
	}{
		{"local-forestfire", []string{"-np", "4", "-respawn", "-kill-rank", "2", "forestfire"}, verdict.ExitOK, "width: 4/4 ranks"},
		{"tcp-drugdesign", []string{"-np", "4", "-respawn", "-kill-rank", "1", "-transport", "tcp", "drugdesign"}, verdict.ExitOK, "width: 4/4 ranks"},
		{"procs-forestfire", []string{"-np", "4", "-respawn", "-kill-rank", "2", "-transport", "procs", "forestfire"}, verdict.ExitOK, "full width 4/4"},
		{"procs-ckpt-dir", []string{"-np", "4", "-respawn", "-kill-rank", "0", "-transport", "procs", "-ckpt", "", "drugdesign"}, verdict.ExitOK, "full width 4/4"},
		{"respawn-and-recover", []string{"-np", "4", "-respawn", "-recover", "forestfire"}, verdict.ExitUsage, "mutually exclusive"},
		{"respawn-and-platform", []string{"-np", "4", "-respawn", "-platform", "pi", "forestfire"}, verdict.ExitUsage, "mutually exclusive"},
		{"unsupported-program", []string{"-np", "4", "-respawn", "integration"}, verdict.ExitLauncher, "-respawn supports"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := tc.args
			for i, a := range args {
				if a == "" { // placeholder: a fresh checkpoint directory
					args[i] = t.TempDir()
				}
			}
			cmd := exec.Command(bin, args...)
			out, err := cmd.CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("running %v: %v\n%s", args, err, out)
				}
				got = ee.ExitCode()
			}
			if got != tc.wantExit {
				t.Errorf("%v: exit = %d, want %d\n%s", args, got, tc.wantExit, out)
			}
			if tc.wantOut != "" && !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("%v: output missing %q:\n%s", args, tc.wantOut, out)
			}
		})
	}
}

// TestTopologyParsing pins the -topology spec grammar and capacity check.
func TestTopologyParsing(t *testing.T) {
	nodes, err := verdict.ParseTopology("2x4", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for r, n := range nodes {
		if n != want[r] {
			t.Fatalf("2x4 placement = %v, want %v", nodes, want)
		}
	}
	// Fewer ranks than slots: blockwise fill of node 0 first.
	if nodes, err = verdict.ParseTopology("3x2", 3); err != nil {
		t.Fatal(err)
	} else if nodes[0] != 0 || nodes[1] != 0 || nodes[2] != 1 {
		t.Fatalf("3x2 placement of 3 ranks = %v", nodes)
	}
	for _, bad := range []string{"", "4", "x4", "2x", "2x4x8", "0x4", "2x0", "-1x4", "ax4", "2x4 "} {
		if _, err := verdict.ParseTopology(bad, 2); err == nil {
			t.Errorf("verdict.ParseTopology(%q) accepted", bad)
		}
	}
	if _, err := verdict.ParseTopology("2x2", 5); err == nil {
		t.Error("5 ranks on 4 slots accepted")
	}
}

// TestHierFlagParsing pins the -hier vocabulary.
func TestHierFlagParsing(t *testing.T) {
	for s, want := range map[string]mpi.HierMode{"auto": mpi.HierAuto, "on": mpi.HierOn, "off": mpi.HierOff} {
		got, err := verdict.ParseHier(s)
		if err != nil || got != want {
			t.Errorf("verdict.ParseHier(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := verdict.ParseHier("maybe"); err == nil {
		t.Error("verdict.ParseHier(\"maybe\") accepted")
	}
}

// TestTopologyFlagMatrix drives the built binary through the -topology and
// -hier flag combinations: hierarchical runs succeed across transports, and
// malformed specs or conflicting flags exit 2 with a pointed message.
func TestTopologyFlagMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the launcher binary")
	}
	bin := buildMpirun(t)
	cases := []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string
	}{
		{"local-hier", []string{"-np", "8", "-topology", "2x4", "integration"}, verdict.ExitOK, "pi ≈"},
		{"local-hier-off", []string{"-np", "8", "-topology", "2x4", "-hier", "off", "integration"}, verdict.ExitOK, "pi ≈"},
		{"local-hier-on-sparse", []string{"-np", "4", "-topology", "4x1", "-hier", "on", "mpiRing"}, verdict.ExitOK, ""},
		{"tcp-hier", []string{"-np", "4", "-topology", "2x2", "-transport", "tcp", "integration"}, verdict.ExitOK, "pi ≈"},
		{"procs-hier", []string{"-np", "4", "-topology", "2x2", "-transport", "procs", "integration"}, verdict.ExitOK, "pi ≈"},
		{"topology-and-platform", []string{"-np", "4", "-topology", "2x2", "-platform", "pi", "integration"}, verdict.ExitUsage, "mutually exclusive"},
		{"bad-spec", []string{"-np", "4", "-topology", "2by2", "integration"}, verdict.ExitUsage, "want NxM"},
		{"too-many-ranks", []string{"-np", "9", "-topology", "2x4", "integration"}, verdict.ExitUsage, "cannot place"},
		{"bad-hier", []string{"-np", "4", "-hier", "sideways", "integration"}, verdict.ExitUsage, "want auto, on, or off"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("running %v: %v\n%s", tc.args, err, out)
				}
				got = ee.ExitCode()
			}
			if got != tc.wantExit {
				t.Errorf("%v: exit = %d, want %d\n%s", tc.args, got, tc.wantExit, out)
			}
			if tc.wantOut != "" && !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("%v: output missing %q:\n%s", tc.args, tc.wantOut, out)
			}
		})
	}
}

// TestShmRecoverEndToEnd: -transport shm composes with -recover — the
// checkpoint-restart body survives a seeded kill on the shm transport and
// the run maps to exit 0.
func TestShmRecoverEndToEnd(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", every3, false, store)
	if err != nil {
		t.Fatal(err)
	}
	runErr := mpi.RunShm(4, body,
		mpi.WithRecovery(),
		mpi.WithFaults(killPlan(2, 5)))
	if errors.Is(runErr, mpi.ErrShmUnsupported) {
		t.Skip("shared-memory transport unsupported on this platform")
	}
	if runErr != nil {
		t.Fatalf("recovered shm run should succeed, got %v", runErr)
	}
	if got := verdict.ExitCode(runErr); got != verdict.ExitOK {
		t.Fatalf("verdict.ExitCode(recovered) = %d, want %d", got, verdict.ExitOK)
	}
}

// TestLauncherArgs: an exemplar's trailing key=value args reach its ranks —
// in-process and, through MPIRUN_PROG, in every worker process — and a bad
// arg is a launcher error (exit 1) that names the key. n=1000 trapezoids
// leave an error of 1.7e-07 where the default million leave ~1e-13, so the
// printed error shows which n the ranks ran.
func TestLauncherArgs(t *testing.T) {
	for _, bad := range [][]string{{"n"}, {"m=5"}, {"n=1e6"}, {"n=0"}, {"ckpt_every=2"}} {
		if _, err := resolveProgram("integration", bad); err == nil {
			t.Errorf("integration %v accepted", bad)
		}
	}
	if _, err := resolveProgram("pagerank", []string{"vertices=1"}); err == nil || !strings.Contains(err.Error(), "vertices") {
		t.Errorf("pagerank vertices=1: err = %v, want it named", err)
	}
	if _, err := recoverBody("forestfire", []string{"trials=100"}, false, ckpt.NewMemStore()); err == nil || !strings.Contains(err.Error(), "trials") {
		t.Errorf("-recover forestfire trials=100: err = %v, want it named", err)
	}
	if _, err := resolveProgram("mpiRing", []string{"n=5"}); err == nil {
		t.Error("a patternlet accepted key=value args")
	}
	if _, err := recoverBody("forestfire", []string{"ckpt_every=x"}, false, ckpt.NewMemStore()); err == nil || !strings.Contains(err.Error(), "ckpt_every") {
		t.Errorf("forestfire ckpt_every=x: err = %v, want it named", err)
	}
	if testing.Short() {
		t.Skip("builds and execs the launcher binary")
	}
	bin := buildMpirun(t)
	cases := []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string
	}{
		{"local", []string{"-np", "2", "integration", "n=1000"}, verdict.ExitOK, "(error 1.7e-07) across 2 processes"},
		{"procs", []string{"-np", "2", "-transport", "procs", "integration", "n=1000"}, verdict.ExitOK, "(error 1.7e-07) across 2 processes"},
		{"procs-recover", []string{"-np", "2", "-transport", "procs", "-recover", "forestfire", "rows=12", "cols=12"}, verdict.ExitOK, "forest fire 12x12"},
		{"unknown-key", []string{"-np", "2", "integration", "m=5"}, verdict.ExitLauncher, `m="5"`},
		{"not-an-integer", []string{"-np", "2", "-transport", "procs", "integration", "n=1e6"}, verdict.ExitLauncher, `n="1e6"`},
		{"recover-unknown-key", []string{"-np", "2", "-recover", "pagerank", "damping=9"}, verdict.ExitLauncher, `damping="9"`},
		{"out-of-range", []string{"-np", "2", "integration", "n=0"}, verdict.ExitLauncher, `n="0"`},
		{"fixed-size", []string{"-np", "2", "pagerank", "vertices=1"}, verdict.ExitLauncher, `vertices="1"`},
		{"recover-ignored-key", []string{"-np", "2", "-recover", "forestfire", "trials=100"}, verdict.ExitLauncher, `trials="100"`},
		{"plain-ckpt-every", []string{"-np", "2", "forestfire", "ckpt_every=2"}, verdict.ExitLauncher, `ckpt_every="2"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			got := 0
			if ee, ok := err.(*exec.ExitError); ok {
				got = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %v: %v\n%s", tc.args, err, out)
			}
			if got != tc.wantExit || !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("%v: exit %d, want %d with %q in:\n%s", tc.args, got, tc.wantExit, tc.wantOut, out)
			}
		})
	}
}
