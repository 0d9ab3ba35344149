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
)

func TestResolveProgramPatternlets(t *testing.T) {
	for _, name := range []string{"mpiSpmd", "mpiRing", "mpiBroadcast"} {
		body, err := resolveProgram(name)
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
		if _, err := resolveProgram(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestResolveProgramRejections(t *testing.T) {
	if _, err := resolveProgram("noSuchThing"); err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("unknown program err = %v", err)
	}
	// Shared-memory patternlets are not mpirun-able.
	if _, err := resolveProgram("spmd"); err == nil || !strings.Contains(err.Error(), "shared-memory") {
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
		{"success", nil, exitOK},
		{"launcher", errors.New("unknown program"), exitLauncher},
		{"formation", fmt.Errorf("wrapped: %w", mpi.ErrFormationTimeout), exitFormation},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
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
	if got := exitCode(err); got != exitRank {
		t.Errorf("rank failure: exitCode(%v) = %d, want %d", err, got, exitRank)
	}

	// A deadline report maps to the rank-failure code too: the program is
	// at fault, not the launcher.
	derr := mpi.Run(2, func(c *mpi.Comm) error {
		_, rerr := c.Recv(1-c.Rank(), 0, nil)
		return rerr
	}, mpi.WithDeadline(50*time.Millisecond))
	if got := exitCode(derr); got != exitRank {
		t.Errorf("deadline: exitCode(%v) = %d, want %d", derr, got, exitRank)
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
		if _, err := recoverBody(name, respawn, store, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"integration", "mpiRing", "noSuchThing"} {
		if _, err := recoverBody(name, respawn, store, 3); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Fatalf("%s: want an error naming %s, got %v", name, flagName, err)
		}
	}
}

// TestRecoverRunEndToEnd: the exact body mpirun -recover launches survives a
// seeded kill in-process and the launcher-level run reports success — the
// exit-0-on-recovery contract, minus the process boundary.
func TestRecoverRunEndToEnd(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", false, store, 3)
	if err != nil {
		t.Fatal(err)
	}
	runErr := mpi.Run(4, body,
		mpi.WithRecovery(),
		mpi.WithFaults(killPlan(2, 5)))
	if runErr != nil {
		t.Fatalf("recovered run should succeed, got %v", runErr)
	}
	if got := exitCode(runErr); got != exitOK {
		t.Fatalf("exitCode(recovered) = %d, want %d", got, exitOK)
	}
}

// TestRespawnRunEndToEnd: the exact body and verdict mpirun -respawn uses —
// a seeded one-shot kill, the rank relaunched into its slot, and the
// full-width check passing — maps to exit 0.
func TestRespawnRunEndToEnd(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", true, store, 3)
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
	if got := exitCode(runErr); got != exitOK {
		t.Fatalf("exitCode(respawned) = %d, want %d", got, exitOK)
	}
}

// TestRespawnNotFullWidth: an unlimited kill rule re-kills every relaunch,
// so the respawn budget runs out, the launcher marks the rank gone for good,
// and every survivor's Recover shrinks at once — no wait anywhere. The
// launcher must report that as errNotFullWidth, exit 3, even though the
// runtime itself reports a recovered (nil-error) run.
func TestRespawnNotFullWidth(t *testing.T) {
	store := ckpt.NewMemStore()
	body, err := recoverBody("forestfire", true, store, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := killPlan(2, 5)
	plan.Rules[0].Count = 0 // unlimited: every incarnation dies
	runErr := runRespawn(mpi.Run, 4, body, []mpi.Option{
		mpi.WithRespawn(),
		mpi.WithFaults(plan),
	})
	if !errors.Is(runErr, errNotFullWidth) {
		t.Fatalf("want errNotFullWidth, got %v", runErr)
	}
	if got := exitCode(runErr); got != exitRank {
		t.Fatalf("exitCode(not full width) = %d, want %d", got, exitRank)
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
		body, err := resolveProgram(name)
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
		{"local-forestfire", []string{"-np", "4", "-respawn", "-kill-rank", "2", "forestfire"}, exitOK, "width: 4/4 ranks"},
		{"tcp-drugdesign", []string{"-np", "4", "-respawn", "-kill-rank", "1", "-transport", "tcp", "drugdesign"}, exitOK, "width: 4/4 ranks"},
		{"procs-forestfire", []string{"-np", "4", "-respawn", "-kill-rank", "2", "-transport", "procs", "forestfire"}, exitOK, "full width 4/4"},
		{"procs-ckpt-dir", []string{"-np", "4", "-respawn", "-kill-rank", "0", "-transport", "procs", "-ckpt", "", "drugdesign"}, exitOK, "full width 4/4"},
		{"respawn-and-recover", []string{"-np", "4", "-respawn", "-recover", "forestfire"}, exitUsage, "mutually exclusive"},
		{"respawn-and-platform", []string{"-np", "4", "-respawn", "-platform", "pi", "forestfire"}, exitUsage, "mutually exclusive"},
		{"unsupported-program", []string{"-np", "4", "-respawn", "integration"}, exitLauncher, "-respawn supports"},
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
	nodes, err := parseTopology("2x4", 8)
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
	if nodes, err = parseTopology("3x2", 3); err != nil {
		t.Fatal(err)
	} else if nodes[0] != 0 || nodes[1] != 0 || nodes[2] != 1 {
		t.Fatalf("3x2 placement of 3 ranks = %v", nodes)
	}
	for _, bad := range []string{"", "4", "x4", "2x", "2x4x8", "0x4", "2x0", "-1x4", "ax4", "2x4 "} {
		if _, err := parseTopology(bad, 2); err == nil {
			t.Errorf("parseTopology(%q) accepted", bad)
		}
	}
	if _, err := parseTopology("2x2", 5); err == nil {
		t.Error("5 ranks on 4 slots accepted")
	}
}

// TestHierFlagParsing pins the -hier vocabulary.
func TestHierFlagParsing(t *testing.T) {
	for s, want := range map[string]mpi.HierMode{"auto": mpi.HierAuto, "on": mpi.HierOn, "off": mpi.HierOff} {
		got, err := parseHier(s)
		if err != nil || got != want {
			t.Errorf("parseHier(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseHier("maybe"); err == nil {
		t.Error("parseHier(\"maybe\") accepted")
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
		{"local-hier", []string{"-np", "8", "-topology", "2x4", "integration"}, exitOK, "pi ≈"},
		{"local-hier-off", []string{"-np", "8", "-topology", "2x4", "-hier", "off", "integration"}, exitOK, "pi ≈"},
		{"local-hier-on-sparse", []string{"-np", "4", "-topology", "4x1", "-hier", "on", "mpiRing"}, exitOK, ""},
		{"tcp-hier", []string{"-np", "4", "-topology", "2x2", "-transport", "tcp", "integration"}, exitOK, "pi ≈"},
		{"procs-hier", []string{"-np", "4", "-topology", "2x2", "-transport", "procs", "integration"}, exitOK, "pi ≈"},
		{"topology-and-platform", []string{"-np", "4", "-topology", "2x2", "-platform", "pi", "integration"}, exitUsage, "mutually exclusive"},
		{"bad-spec", []string{"-np", "4", "-topology", "2by2", "integration"}, exitUsage, "want NxM"},
		{"too-many-ranks", []string{"-np", "9", "-topology", "2x4", "integration"}, exitUsage, "cannot place"},
		{"bad-hier", []string{"-np", "4", "-hier", "sideways", "integration"}, exitUsage, "want auto, on, or off"},
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
	body, err := recoverBody("forestfire", false, store, 3)
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
	if got := exitCode(runErr); got != exitOK {
		t.Fatalf("exitCode(recovered) = %d, want %d", got, exitOK)
	}
}
