package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runConfig is one workload's run: what the parent passes its child.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed pass; the other passes scale with it
	Trace    bool
	OutDir   string
}

// passes are the lengths a run is cut into. A full run (-seconds 12) is 7
// bare set-up cycles, then 12 segments, each a world of its own with a sixth
// of a second of warm-up, 1 s of 100 ms windows and a sixth of a second of
// counting pass. Segment medians of one run differ by 5-10 % on the TCP and
// scheduler workloads (ports, socket buffers, which thread a goroutine woke
// on, what the neighbours did that second), more than the windows of one
// world do, so a run samples twelve worlds, not one.
type passes struct {
	Warm, Timed, Count, Window time.Duration // totals over all segments
	SetupCycles, Segments      int
}

func passesFor(seconds float64, trace bool) passes {
	s := time.Duration(seconds * float64(time.Second))
	p := passes{Warm: s / 6, Timed: s, Count: s / 6, Window: 100 * time.Millisecond, SetupCycles: 7, Segments: 12}
	if trace {
		// Per-layer pass: a third of the time traced, a third untraced for
		// the overhead figure, the rest left for the probes.
		p = passes{Warm: s / 12, Timed: 2 * s / 3, Count: s / 12, Window: p.Window, Segments: 4}
	}
	if w := p.Timed / time.Duration(2*p.Segments); w < p.Window { // -quick: two windows a segment
		p.Window = w
		p.SetupCycles = min(p.SetupCycles, 3)
	}
	return p
}

// tally counts ops attempted and ops whose answer was wrong.
type tally struct {
	attempted, failed int
}

// run makes one attempt.
func (t *tally) run(op func() error) error {
	t.attempted++
	return t.filter(op())
}

// filter counts a wrong answer as a failed op, reports the first few on
// standard error, and lets only other errors through.
func (t *tally) filter(err error) error {
	if errors.Is(err, errWrong) {
		if t.failed++; t.failed <= 3 {
			fmt.Fprintln(os.Stderr, "bench: failed op:", err)
		}
		return nil
	}
	return err
}

// passStats is what the passes of one run measured.
type passStats struct {
	SetupS          []float64 // one per bare cycle, then one per segment
	YardCalls       int       // yardstick calls after each op
	Windows         []window
	TracedWindows   []window
	RelP50, RelP90  float64
	OpP50Us, YardUs float64

	// Counting passes, ops only: totals over all segments, turned into
	// per-op figures once the last one is done.
	Ops                                int
	WallS, CPUS                        float64
	mallocs, allocBytes, gcs, syscalls float64
	AllocsPerOp                        float64
	AllocKBPerOp                       float64
	SyscallsPerOp                      float64 // 0 where /proc/self/io cannot be read
	GCPerKop                           float64
	HeapMB                             float64

	rec *recorder
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// syscallCount is syscr+syscw of this process, or -1 where the kernel does
// not say.
func syscallCount() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	total := 0.0
	for _, line := range strings.Split(string(b), "\n") {
		var n float64
		if _, err := fmt.Sscanf(line, "syscr: %g", &n); err == nil {
			total += n
		} else if _, err := fmt.Sscanf(line, "syscw: %g", &n); err == nil {
			total += n
		}
	}
	return total
}

// cycle forms what the op runs in, runs one op, calls body if there is one,
// and tears down. It returns the set-up time in seconds: from the call to the
// first answer, plus the tear-down. A session that ends on a wrong answer is
// one failed op.
func cycle(w *workload, t *tally, body func(s *session, plain, verify func() error) error) (float64, error) {
	var ready, closing time.Time
	t0 := time.Now()
	err := t.filter(w.open(func(s *session) error {
		plain := func() error { return t.run(func() error { return s.op(nil) }) }
		verify := func() error {
			if s.verify == nil {
				return nil
			}
			return t.filter(s.verify())
		}
		err := plain()
		ready = time.Now()
		if err == nil {
			err = verify()
		}
		if err == nil && body != nil {
			err = body(s, plain, verify)
		}
		closing = time.Now()
		return err
	}))
	return (ready.Sub(t0) + time.Since(closing)).Seconds(), err
}

// measure runs the passes of w, one session per segment. With a recorder
// each segment's windows are half untraced, half traced; without one they
// are all untraced.
func measure(w *workload, rec *recorder, p passes, t *tally) (*passStats, error) {
	ps := &passStats{rec: rec}
	for i := 0; i < p.SetupCycles; i++ {
		s, err := cycle(w, t, nil)
		if err != nil {
			return nil, err
		}
		ps.SetupS = append(ps.SetupS, s)
	}
	yard, closeYard, err := w.newYard()
	if err != nil {
		return nil, err
	}
	defer closeYard()
	n := time.Duration(p.Segments)
	for seg := 0; seg < p.Segments; seg++ {
		s, err := cycle(w, t, func(s *session, plain, verify func() error) error {
			traced := func() error { return t.run(func() error { return s.op(rec) }) }
			k := ps.YardCalls
			if seg == 0 {
				k = 1 // the first warm-up sizes k for the rest of the run
			}
			ws, err := timedPass(plain, yard, k, p.Warm/n, p.Window, verify)
			if err != nil {
				return err
			}
			if seg == 0 {
				var opNs, yardNs float64
				for _, x := range ws {
					opNs += x.OpNs / float64(x.Ops)
					yardNs += x.YardNs / float64(x.Yards)
				}
				ps.YardCalls = yardCalls(opNs, yardNs)
			}
			timed := p.Timed / n
			if rec != nil {
				timed /= 2
				ws, err := timedPass(traced, yard, ps.YardCalls, timed, p.Window, verify)
				if err != nil {
					return err
				}
				ps.TracedWindows = append(ps.TracedWindows, ws...)
			}
			ws, err = timedPass(plain, yard, ps.YardCalls, timed, p.Window, verify)
			if err != nil {
				return err
			}
			ps.Windows = append(ps.Windows, ws...)
			return ps.countingPass(plain, p.Count/n)
		})
		if err != nil {
			return nil, err
		}
		ps.SetupS = append(ps.SetupS, s)
	}
	ops := float64(ps.Ops)
	ps.AllocsPerOp = ps.mallocs / ops
	ps.AllocKBPerOp = ps.allocBytes / 1024 / ops
	ps.GCPerKop = ps.gcs / ops * 1000
	ps.SyscallsPerOp = ps.syscalls / ops
	rs := ratios(ps.Windows)
	ps.RelP50, ps.RelP90 = median(rs), quantile(rs, 0.9)
	ps.OpP50Us = median(mapWindows(ps.Windows, window.opUs))
	ps.YardUs = median(mapWindows(ps.Windows, window.yardUs))
	return ps, nil
}

// countingPass runs ops only for d, so every count belongs to the program,
// and adds what it counted to the run's totals. Every segment ends with one:
// a single pass would count one world's behaviour in one moment of the host.
func (ps *passStats) countingPass(plain func() error, d time.Duration) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys0, cpu0, t0 := syscallCount(), cpuSeconds(), time.Now()
	for ops := 0; time.Since(t0) < d || ops == 0; ops++ {
		if err := plain(); err != nil {
			return err
		}
		ps.Ops++
	}
	ps.WallS += time.Since(t0).Seconds()
	ps.CPUS += cpuSeconds() - cpu0
	sys1 := syscallCount()
	runtime.ReadMemStats(&m1)
	ps.mallocs += float64(m1.Mallocs - m0.Mallocs)
	ps.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	ps.gcs += float64(m1.NumGC - m0.NumGC)
	ps.HeapMB = float64(m1.HeapInuse) / (1 << 20)
	if sys0 >= 0 && sys1 >= 0 {
		ps.syscalls += sys1 - sys0
	}
	return nil
}

// runWorkload is the child's whole job: build the workload from the seed,
// run it, check for leaks, write the result file.
func runWorkload(cfg runConfig) (*result, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("no workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	w, err := spec.build(cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := passesFor(cfg.Seconds, cfg.Trace)
	res := &result{Workload: cfg.Workload, Metrics: map[string]metric{}, Samples: map[string]int{}}
	res.Provenance = newProvenance(cfg, p)
	var t tally
	if cfg.Trace {
		err = runTraced(w, cfg, p, &t, res)
	} else {
		err = runUntraced(w, p, &t, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Leaks = leaks()
	res.Correct = res.Failed == 0 && len(res.Leaks) == 0
	return res, res.write(filepath.Join(cfg.OutDir, "result-"+res.fileStem()+".json"))
}

func runUntraced(w *workload, p passes, t *tally, res *result) error {
	ps, err := measure(w, nil, p, t)
	if err != nil {
		return err
	}
	res.Provenance.YardCallsPerOp = ps.YardCalls
	n := len(ps.Windows)
	res.set("setup_s", median(ps.SetupS), len(ps.SetupS))
	res.set("rel_cost_p50", ps.RelP50, n)
	res.set("rel_cost_p90", ps.RelP90, n)
	res.set("cpu_rel_cost", ps.RelP50*ps.CPUS/ps.WallS, ps.Ops)
	res.set("allocs_per_op", ps.AllocsPerOp, ps.Ops)
	res.set("alloc_kb_per_op", ps.AllocKBPerOp, ps.Ops)
	res.set("peak_rss_mb", peakRSSMiB(), 1)
	res.Raw = map[string]float64{
		"op_p50_us": ps.OpP50Us, "yard_us": ps.YardUs,
		"ops_per_s": float64(ps.Ops) / ps.WallS, "cpu_util": ps.CPUS / ps.WallS,
	}
	return nil
}

// layerMetrics turns a traced session into per-layer numbers: the mean of
// every span named after a metric (span "tcp.send" is metric "tcp.send_us"),
// then whatever the workload's own probe adds.
func layerMetrics(w *workload, ps *passStats, budget time.Duration) (map[string]float64, error) {
	m, err := w.probe(ps, budget)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if name, ok := strings.CutSuffix(d.Name, "_us"); ok {
			if v, ok := ps.rec.meanUs(name); ok {
				m[d.Name] = v
			}
		}
	}
	return m, nil
}

func runTraced(w *workload, cfg runConfig, p passes, t *tally, res *result) error {
	rec := newRecorder(1 << 16)
	ps, err := measure(w, rec, p, t)
	if err != nil {
		return err
	}
	res.Provenance.YardCallsPerOp = ps.YardCalls
	probeBudget := p.Timed / 8
	m, err := layerMetrics(w, ps, probeBudget)
	if err != nil {
		return err
	}
	m["rt.gc_per_kop"] = ps.GCPerKop
	m["rt.heap_mb"] = ps.HeapMB
	m["abs.op_p50_us"] = ps.OpP50Us
	m["abs.ops_per_s"] = float64(ps.Ops) / ps.WallS
	m["abs.yard_us"] = ps.YardUs
	m["abs.cpu_util"] = ps.CPUS / ps.WallS
	m["trace.overhead_frac"] = median(ratios(ps.TracedWindows))/ps.RelP50 - 1
	own := len(ps.TracedWindows)

	// Layers this workload never enters are read from a short side run of
	// the workload that owns them, so one traced run fills the whole table.
	// A layer's numbers are best read from its own workload's trace.
	side := passesFor(cfg.Seconds/32, true)
	for _, spec := range workloads {
		if spec.name == cfg.Workload {
			continue
		}
		if err := fillFrom(spec, cfg.Seed, side, t, m); err != nil {
			return fmt.Errorf("side run of %s: %w", spec.name, err)
		}
	}
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("no value for per-layer metric %s", d.Name)
		}
		res.set(d.Name, v, own)
	}
	return rec.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), cfg.Workload, res.Provenance)
}

// fillFrom adds to m the per-layer metrics that only spec's workload can
// measure and m does not hold yet.
func fillFrom(spec workloadSpec, seed int64, p passes, t *tally, m map[string]float64) error {
	w, err := spec.build(seed)
	if err != nil {
		return err
	}
	ps, err := measure(w, newRecorder(0), p, t)
	if err != nil {
		return err
	}
	sm, err := layerMetrics(w, ps, p.Timed)
	if err != nil {
		return err
	}
	for k, v := range sm {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return nil
}
