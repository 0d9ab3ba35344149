package integration

import (
	"errors"
	"fmt"
	"math"
	"testing"
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

func TestAdaptiveSimpsonSharedMatchesSequential(t *testing.T) {
	rows := []struct {
		name string
		f    Func
		a, b float64
		tol  float64
	}{
		{"sin10x", func(x float64) float64 { return math.Sin(10*x) / (0.1 + x*x) }, -2, 3, 1e-9},
		{"gate", oscillating, 0.001, 1, 1e-10},
	}
	for _, row := range rows {
		want, err := AdaptiveSimpson(row.f, row.a, row.b, row.tol)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4, 8} {
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

func TestAdaptiveSimpsonTolerance(t *testing.T) {
	if _, err := AdaptiveSimpson(QuarterCircle, 0, 1, 0); !errors.Is(err, ErrBadTolerance) {
		t.Fatalf("tol=0 err = %v", err)
	}
	if _, err := AdaptiveSimpsonShared(QuarterCircle, 0, 1, -1, 2); !errors.Is(err, ErrBadTolerance) {
		t.Fatalf("shared tol<0 err = %v", err)
	}
}

func TestAdaptiveBeatsFixedGridOnPeaks(t *testing.T) {
	// For a sharp peak, adaptive Simpson at modest tolerance is more
	// accurate than a 10k-point trapezoid.
	peak := func(x float64) float64 { return 1 / (1e-4 + x*x) }
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
