// Command bench is the repository's gating benchmark: seven np=2 workloads,
// each scored as a ratio to a platform yardstick measured in the same 100 ms
// windows, plus a traced pass that attributes the time to layers. README.md
// in this directory documents the metrics, workloads and yardsticks.
//
//	go run ./bench                         every workload, end-to-end metrics
//	go run ./bench -workload stream-1MiB-shm
//	go run ./bench -trace 1                per-layer metrics, bench/out/trace-*.json
//	go run ./bench -aa 5                   two interleaved sets of 5 runs of this build
//	go run ./bench -quick                  0.3 s passes: a smoke run
//
// Run it from the repository root. With -workload, the last line of standard
// output is the one-object JSON form BENCHMARK.json's contract asks for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance is stamped on every result and trace file: enough to tell two
// numbers apart that should not be compared.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`

	WarmS          float64 `json:"warm_s"`
	TimedS         float64 `json:"timed_s"`
	CountS         float64 `json:"count_s"`
	WindowMs       float64 `json:"window_ms"`
	SetupCycles    int     `json:"setup_cycles"`
	YardCallsPerOp int     `json:"yard_calls_per_op"`
}

func newProvenance(cfg runConfig, p passes) provenance {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// The gate runs in an exported tree with no repository; a number from
	// there says "unknown" rather than guess.
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, Commit: commit, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		WarmS: p.Warm.Seconds(), TimedS: p.Timed.Seconds(), CountS: p.Count.Seconds(),
		WindowMs: float64(p.Window) / 1e6, SetupCycles: p.SetupCycles,
	}
}

// childTimeout is how long the parent lets one workload's child live; a full
// run takes under 20 s.
const childTimeout = 150 * time.Second

// runChild runs one workload in a process of its own, so peak memory and
// allocation counts are that workload's alone, and checks what it left.
func runChild(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", cfg.Workload,
		"-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-trace", trace, "-out", cfg.OutDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pid := cmd.Process.Pid
	err = cmd.Wait()
	// Nothing the child started may outlive it: signal its process group and
	// expect to find it empty.
	if kerr := syscall.Kill(-pid, syscall.SIGKILL); kerr == nil {
		err = errors.Join(err, fmt.Errorf("%s: child left processes running", cfg.Workload))
	}
	if segs := shmSegments(pid); len(segs) > 0 {
		for _, s := range segs {
			os.Remove(s)
		}
		err = errors.Join(err, fmt.Errorf("%s: child left shared-memory segments %v", cfg.Workload, segs))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", cfg.Workload, err)
	}
	if len(res.Leaks) > 0 {
		return nil, fmt.Errorf("%s: child leaked: %s", cfg.Workload, strings.Join(res.Leaks, "; "))
	}
	return &res, nil
}

// printResult lists every metric by name with its unit.
func printResult(res *result) {
	fmt.Printf("%s  seed=%d  ops attempted=%d failed=%d  correct=%v\n",
		res.Workload, res.Provenance.Seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-26s %14.6g %-7s (n=%d)\n", name, m.Value, m.Unit, res.Samples[name])
	}
}

// contractLine is the one-object form the gate reads from the last line.
func contractLine(res *result) string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return string(b)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all seven)")
		seed    = flag.Int64("seed", 1, "seed for graph, ligand, forest and payload generation")
		seconds = flag.Float64("seconds", 12, "length of the timed pass; warm-up and counting pass are a sixth of it each")
		trace   = flag.Int("trace", 0, "1: the traced pass and per-layer metrics instead of the end-to-end ones")
		quick   = flag.Bool("quick", false, "smoke run: -seconds 0.3")
		aa      = flag.Int("aa", 0, "A/A check: two interleaved sets of N runs of this build, compared within the bounds")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		child   = flag.Bool("child", false, "internal: run -workload in this process and print its result")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	if *quick {
		*seconds = 0.3
	}
	cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}

	if *child {
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}

	var names []string
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
		os.Exit(2)
	}

	if *aa > 0 {
		if !aaCheck(cfg, names, *aa) {
			os.Exit(1)
		}
		return
	}

	for _, n := range names {
		cfg.Workload = n
		res, err := runChild(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(res)
		if *name != "" {
			// The gate reads correctness from this line, not the exit code.
			fmt.Println(contractLine(res))
		} else if !res.Correct {
			os.Exit(1)
		}
	}
}
