// Command benchlab runs the "small benchmarking study" the shared-memory
// module closes with, generalized to every modeled platform: it times an
// exemplar at a sweep of worker counts, prints the speedup/efficiency
// table, and (with -model) prints the platform's analytically predicted
// speedup curve instead of measuring.
//
// Usage:
//
//	benchlab -platform pi -exemplar integration -sweep 1,2,4
//	benchlab -platform stolaf -exemplar forestfire -sweep 1,2,4,8,16
//	benchlab -platform colab -exemplar drugdesign -sweep 1,2,4 -model
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars"
	"repro/internal/stats"
)

func main() {
	var (
		platform = flag.String("platform", "pi", "modeled platform (pi, colab, chameleon, stolaf)")
		exemplar = flag.String("exemplar", "integration", "an exemplar: integration, drugdesign, forestfire, or pagerank (no shared-memory form, so not on the Pi)")
		sweep    = flag.String("sweep", "1,2,4", "comma-separated worker counts")
		model    = flag.Bool("model", false, "print the platform's predicted speedup curve instead of measuring")
		repeat   = flag.Int("repeat", 1, "measure each configuration this many times; >1 adds a 95% confidence interval")
	)
	flag.Parse()

	plat, err := cluster.Lookup(*platform)
	if err != nil {
		fail(err)
	}
	counts, err := parseSweep(*sweep)
	if err != nil {
		fail(err)
	}

	if *model {
		fmt.Printf("Predicted speedup on %s (equal work split across ranks):\n", plat)
		fmt.Printf("%8s %9s\n", "workers", "speedup")
		for _, np := range counts {
			fmt.Printf("%8d %8.2fx\n", np, plat.PredictedSpeedup(np, time.Second))
		}
		return
	}

	if *repeat < 1 {
		fail(fmt.Errorf("repeat must be >= 1, got %d", *repeat))
	}
	fmt.Printf("Benchmarking %s on %s (%d repetition(s) per point)\n\n", *exemplar, plat, *repeat)
	times := make([]time.Duration, len(counts))
	cis := make([]string, len(counts))
	for i, np := range counts {
		samples := make([]float64, *repeat)
		for r := 0; r < *repeat; r++ {
			start := time.Now()
			if err := runExemplar(plat, *exemplar, np); err != nil {
				fail(err)
			}
			samples[r] = float64(time.Since(start))
		}
		mean, err := stats.Mean(samples)
		if err != nil {
			fail(err)
		}
		times[i] = time.Duration(mean)
		if *repeat > 1 {
			lo, hi, err := stats.MeanCI(samples, 0.95)
			if err != nil {
				fail(err)
			}
			cis[i] = fmt.Sprintf(" (95%% CI %v .. %v)",
				time.Duration(lo).Round(time.Microsecond), time.Duration(hi).Round(time.Microsecond))
		}
	}
	points, err := stats.ScalingStudy(counts, times)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.FormatScaling(points))
	if *repeat > 1 {
		fmt.Println("\nper-point confidence intervals:")
		for i, np := range counts {
			fmt.Printf("  np=%d: mean %v%s\n", np, times[i].Round(time.Microsecond), cis[i])
		}
	}
}

func parseSweep(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return counts, nil
}

// scale is each exemplar's study size, its key=value args (defaults without
// a row): big enough that a point measures the work rather than the launch.
var scale = map[string]map[string]string{
	"integration": {"n": "20000000"},
	"drugdesign":  {"ligands": "4000", "max_len": "10"},
	"forestfire":  {"rows": "61", "cols": "61", "trials": "60"},
}

// runExemplar executes one timed configuration. The shared-memory platform
// (pi) runs the exemplar's shared-memory form on np threads; the others
// launch its message-passing form under the platform's core gate.
func runExemplar(plat cluster.Platform, name string, np int) error {
	e, err := exemplars.Lookup(name)
	if err != nil {
		return err
	}
	a, err := e.Args(scale[name], false)
	if err != nil {
		return err
	}
	if plat.Name != cluster.RaspberryPi().Name {
		return plat.Launch(np, e.Body(io.Discard, a))
	}
	if e.Shared == nil {
		return fmt.Errorf("%s has no shared-memory form to run on the Pi", name)
	}
	return e.RunShared(io.Discard, np, a)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchlab:", err)
	os.Exit(1)
}
