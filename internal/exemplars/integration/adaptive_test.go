package integration

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestAdaptiveSimpsonKnownIntegrals(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		a, b float64
		want float64
	}{
		{"pi", QuarterCircle, 0, 1, math.Pi},
		{"cubic", func(x float64) float64 { return x * x * x }, 0, 2, 4},
		{"sin", math.Sin, 0, math.Pi, 2},
		{"exp", math.Exp, 0, 1, math.E - 1},
		// A sharply peaked integrand: adaptive refinement earns its keep.
		{"peak", func(x float64) float64 { return 1 / (1e-4 + x*x) }, -1, 1,
			2 / 1e-2 * math.Atan(1/1e-2)},
	}
	for _, c := range cases {
		const tol = 1e-10
		got, err := AdaptiveSimpson(c.f, c.a, c.b, tol)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-7*math.Abs(c.want)+1e-9 {
			t.Errorf("%s: got %.12g, want %.12g", c.name, got, c.want)
		}
	}
}

// oscillating is the gate's adaptive integrand: sin(1/x) near 0 refines
// unevenly, which makes the task tree irregular.
func oscillating(x float64) float64 { return math.Sin(1 / x) }

func peak(x float64) float64 { return 1 / (1e-4 + x*x) }

// TestAdaptiveSimpsonSharedMatchesSequential holds the task form bit-equal
// to the sequential recursion on integrands whose work the spawn rule puts
// in different places: none spawns at all (sin(1/x) at 1e-8), a few dozen
// spawns (the smooth, damped row), about 1 500 (sin(1/x) at 1e-12).
func TestAdaptiveSimpsonSharedMatchesSequential(t *testing.T) {
	rows := []struct {
		name string
		f    Func
		a, b float64
		tol  float64
	}{
		{"sin10x", func(x float64) float64 { return math.Sin(10*x) / (0.1 + x*x) }, -2, 3, 1e-9},
		{"gate", oscillating, 0.001, 1, 1e-10},
		{"oscillating-1e-8", oscillating, 0.001, 1, 1e-8},
		{"oscillating-1e-12", oscillating, 0.001, 1, 1e-12},
		{"peak-1e-10", peak, -1, 1, 1e-10},
		{"peak-1e-12", peak, -1, 1, 1e-12},
		{"damped-1e-12", func(x float64) float64 { return math.Sqrt(x) * math.Sin(x) * math.Exp(-x) }, 0, 20, 1e-12},
	}
	for _, row := range rows {
		want, err := AdaptiveSimpson(row.f, row.a, row.b, row.tol)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3, 4, 8} {
			got, err := AdaptiveSimpsonShared(row.f, row.a, row.b, row.tol, threads)
			if err != nil {
				t.Fatal(err)
			}
			// The task decomposition changes only the traversal order of
			// the identical refinement tree; every sum pairs as in the
			// sequential recursion, so the bits agree.
			if got != want {
				t.Fatalf("%s, threads=%d: %.17g vs sequential %.17g", row.name, threads, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestAdaptiveSimpsonSharedAllocations pins what the gate's call allocates.
// A spawn costs two objects (the task's closure and the spawned half's group
// and result), and the error rule spawns 315 times on this integrand; the
// fixed depth-9 cutoff with three objects a spawn allocated 804.
func TestAdaptiveSimpsonSharedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const ceiling = 804
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AdaptiveSimpsonShared(oscillating, 0.001, 1, 1e-10, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("AdaptiveSimpsonShared allocated %.0f objects a call, want at most %d", allocs, ceiling)
	}
	t.Logf("%.0f objects a call", allocs)
}

// BenchmarkAdaptiveSimpsonShared times the task-parallel exemplar on the
// gate's integrand: t2 should beat t1 on a host with two free cores.
func BenchmarkAdaptiveSimpsonShared(b *testing.B) {
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AdaptiveSimpsonShared(oscillating, 0.001, 1, 1e-10, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdaptiveSimpsonTolerance: a tolerance that is not positive is
// rejected, NaN included, and an integrand that is NaN everywhere returns
// NaN at once. Without the NaN checks both fail every stop test and recurse
// to the depth bound on every branch, about 2⁴⁰ nodes.
func TestAdaptiveSimpsonTolerance(t *testing.T) {
	nan := func(float64) float64 { return math.NaN() }
	rows := []struct {
		name    string
		run     func() (float64, error)
		wantErr error
	}{
		{"tol=0", func() (float64, error) { return AdaptiveSimpson(QuarterCircle, 0, 1, 0) }, ErrBadTolerance},
		{"shared tol<0", func() (float64, error) { return AdaptiveSimpsonShared(QuarterCircle, 0, 1, -1, 2) }, ErrBadTolerance},
		{"tol=NaN", func() (float64, error) { return AdaptiveSimpson(QuarterCircle, 0, 1, math.NaN()) }, ErrBadTolerance},
		{"shared tol=NaN", func() (float64, error) { return AdaptiveSimpsonShared(QuarterCircle, 0, 1, math.NaN(), 2) }, ErrBadTolerance},
		{"NaN integrand", func() (float64, error) { return AdaptiveSimpson(nan, 0, 1, 1e-10) }, nil},
		{"shared NaN integrand", func() (float64, error) { return AdaptiveSimpsonShared(nan, 0, 1, 1e-10, 2) }, nil},
	}
	for _, row := range rows {
		done := make(chan struct{})
		var got float64
		var err error
		go func() {
			got, err = row.run()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", row.name)
		}
		if !errors.Is(err, row.wantErr) {
			t.Errorf("%s: err = %v, want %v", row.name, err, row.wantErr)
		}
		if row.wantErr == nil && !math.IsNaN(got) {
			t.Errorf("%s: got %g, want NaN", row.name, got)
		}
	}
}

func TestAdaptiveBeatsFixedGridOnPeaks(t *testing.T) {
	// For a sharp peak, adaptive Simpson at modest tolerance is more
	// accurate than a 10k-point trapezoid.
	want := 2 / 1e-2 * math.Atan(1/1e-2)

	adaptive, err := AdaptiveSimpson(peak, -1, 1, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Trapezoid(peak, -1, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adaptive-want) >= math.Abs(fixed-want) {
		t.Fatalf("adaptive err %g not better than fixed-grid err %g",
			math.Abs(adaptive-want), math.Abs(fixed-want))
	}
}
