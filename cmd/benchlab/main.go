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
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/stats"
)

func main() {
	var (
		platform = flag.String("platform", "pi", "modeled platform (pi, colab, chameleon, stolaf)")
		exemplar = flag.String("exemplar", "integration", "integration, drugdesign, or forestfire")
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

// runExemplar executes one timed configuration. The shared-memory platform
// (pi) uses the shm runtime; the others launch MPI jobs under the
// platform's core gate.
func runExemplar(plat cluster.Platform, exemplar string, np int) error {
	onPi := plat.Name == cluster.RaspberryPi().Name
	switch exemplar {
	case "integration":
		const n = 20_000_000
		if onPi {
			_, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, n, np)
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := integration.TrapezoidMPI(c, integration.QuarterCircle, 0, 1, n)
			return err
		})
	case "drugdesign":
		params := drugdesign.DefaultParams()
		params.NumLigands = 4000
		params.MaxLigandLen = 10
		if onPi {
			_, err := drugdesign.Shared(params, np, shm.Dynamic(1))
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := drugdesign.MPIMasterWorker(c, params)
			return err
		})
	case "forestfire":
		params := forestfire.DefaultParams()
		params.Rows, params.Cols = 61, 61
		params.Trials = 60
		if onPi {
			_, err := forestfire.SweepShared(params, np)
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := forestfire.SweepMPI(c, params)
			return err
		})
	default:
		return fmt.Errorf("unknown exemplar %q", exemplar)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchlab:", err)
	os.Exit(1)
}
