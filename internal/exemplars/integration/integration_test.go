package integration

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func TestTrapezoidConvergesToPi(t *testing.T) {
	got, err := Trapezoid(QuarterCircle, 0, 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Pi) > 1e-9 {
		t.Fatalf("trapezoid pi = %.12f (err %g)", got, AbsError(got))
	}
}

func TestTrapezoidLinearFunctionIsExact(t *testing.T) {
	// The trapezoidal rule is exact for affine integrands at any n.
	f := func(x float64) float64 { return 3*x + 2 }
	for _, n := range []int{1, 2, 7, 100} {
		got, err := Trapezoid(f, 0, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-10) > 1e-12 { // ∫₀² (3x+2) = 6+4
			t.Fatalf("n=%d: got %v, want 10", n, got)
		}
	}
}

func TestTrapezoidBadN(t *testing.T) {
	if _, err := Trapezoid(QuarterCircle, 0, 1, 0); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("err = %v", err)
	}
	if _, err := TrapezoidShared(QuarterCircle, 0, 1, 0, 2); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("shared err = %v", err)
	}
}

// The small n cover no interior point (n = 1), fewer interior points than
// threads, and the default team (threads = 0).
func TestTrapezoidSharedMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100_000} {
		want, err := Trapezoid(QuarterCircle, 0, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{0, 1, 2, 4, 8} {
			got, err := TrapezoidShared(QuarterCircle, 0, 1, n, threads)
			if err != nil {
				t.Fatal(err)
			}
			// Up to one interior point there is one addition, whose order
			// cannot matter; beyond it the summation order differs between
			// thread counts, so allow floating-point slack.
			tol := 1e-12
			switch {
			case n <= 2:
				tol = 0
			case n > 7:
				tol = 1e-9
			}
			if math.Abs(got-want) > tol {
				t.Fatalf("n=%d threads=%d: %v vs sequential %v", n, threads, got, want)
			}
		}
	}
}

func TestTrapezoidMPIMatchesSequentialEverywhere(t *testing.T) {
	const n = 10_000
	want, err := Trapezoid(QuarterCircle, 0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 3, 5, 8} {
		err := mpi.Run(np, func(c *mpi.Comm) error {
			got, err := TrapezoidMPI(c, QuarterCircle, 0, 1, n)
			if err != nil {
				return err
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("np=%d rank=%d: %v vs %v", np, c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrapezoidMPIBadN(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := TrapezoidMPI(c, QuarterCircle, 0, 1, 0); !errors.Is(err, ErrBadInterval) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMonteCarloPiAccuracy(t *testing.T) {
	got, err := MonteCarloPi(200_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Pi) > 0.02 {
		t.Fatalf("MC pi = %v", got)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	a, _ := MonteCarloPi(50_000, 7)
	b, _ := MonteCarloPi(50_000, 7)
	c, _ := MonteCarloPi(50_000, 8)
	if a != b {
		t.Fatal("same seed produced different estimates")
	}
	if a == c {
		t.Fatal("different seeds produced identical estimates (suspicious)")
	}
}

func TestMonteCarloSharedDeterministicAndAccurate(t *testing.T) {
	const n = 100_000
	first, err := MonteCarloPiShared(n, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MonteCarloPiShared(n, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("shared MC not deterministic for fixed (n, seed, threads)")
	}
	if math.Abs(first-math.Pi) > 0.05 {
		t.Fatalf("shared MC pi = %v", first)
	}
}

func TestMonteCarloMPIMatchesSharedPartitioning(t *testing.T) {
	// The MPI and shared versions use the same per-worker seeding, so with
	// equal worker counts they produce the identical estimate.
	const n, seed = 60_000, 99
	want, err := MonteCarloPiShared(n, seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]float64{}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		v, err := MonteCarloPiMPI(c, n, seed)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = v
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != want {
			t.Fatalf("rank %d estimate %v, want %v", r, v, want)
		}
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarloPi(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := MonteCarloPiShared(0, 1, 2); err == nil {
		t.Fatal("shared n=0 accepted")
	}
}

func TestTrapezoidSharedAccuracyProperty(t *testing.T) {
	// For smooth integrands the composite trapezoid error shrinks as n
	// grows; check monotone-ish improvement over decades.
	errAt := func(n int) float64 {
		v, err := TrapezoidShared(QuarterCircle, 0, 1, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(v - math.Pi)
	}
	if !(errAt(10) > errAt(1000)) || !(errAt(1000) > errAt(100000)) {
		t.Fatal("trapezoid error did not decrease with n")
	}
}

// TestTrapezoidSharedGoldenBits pins the exemplar at the gate's size: the
// static blocks and the thread-order fold fix the summation order, so the
// integral's bits at each team size are a constant. Computed at the commit
// before shm's chunk-granular loop engine (PR 15's tree).
func TestTrapezoidSharedGoldenBits(t *testing.T) {
	golden := map[int]uint64{
		1: 0x400921fb54442af9,
		2: 0x400921fb54442c5c,
		3: 0x400921fb54442cac,
		4: 0x400921fb54442c5b,
	}
	for nt, want := range golden {
		got, err := TrapezoidShared(QuarterCircle, 0, 1, 2_000_000, nt)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != want {
			t.Errorf("nt=%d: integral bits %#x (%v), want %#x", nt, bits, got, want)
		}
	}
}

// The exemplar at the size the gating benchmark's shm-exemplars-t2 workload
// times it (2 M points): sequential baseline against the reduction on one
// and two threads, the study's first table.
func BenchmarkTrapezoid(b *testing.B) {
	const n = 2_000_000
	run := func(name string, f func() (float64, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("seq", func() (float64, error) { return Trapezoid(QuarterCircle, 0, 1, n) })
	run("shared-t1", func() (float64, error) { return TrapezoidShared(QuarterCircle, 0, 1, n, 1) })
	run("shared-t2", func() (float64, error) { return TrapezoidShared(QuarterCircle, 0, 1, n, 2) })
}
