// Package integration implements the numerical-integration exemplar that
// closes the shared-memory module's final half hour: approximating a
// definite integral with the trapezoidal rule, and π with both the
// quarter-circle integral and Monte Carlo dart throwing. The module uses it
// for the "small benchmarking study" in which learners measure speedup at
// 1–4 threads on the Raspberry Pi; the distributed module reuses it across
// ranks.
package integration

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mpi"
	"repro/internal/shm"
)

// Func is the integrand.
type Func func(x float64) float64

// ErrBadInterval is returned when the subdivision count is not positive.
var ErrBadInterval = errors.New("integration: need at least 1 trapezoid")

// QuarterCircle is the classic teaching integrand: ∫₀¹ 4/(1+x²) dx = π.
func QuarterCircle(x float64) float64 { return 4 / (1 + x*x) }

// Trapezoid approximates ∫ₐᵇ f with n trapezoids, sequentially: the
// baseline learners time first.
func Trapezoid(f Func, a, b float64, n int) (float64, error) {
	if n < 1 {
		return 0, ErrBadInterval
	}
	h := (b - a) / float64(n)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < n; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h, nil
}

// TrapezoidShared is the OpenMP exemplar's "#pragma omp parallel for
// schedule(static) reduction(+:sum)" in its static-schedule lowering: each
// thread of a team no wider than the n-1 interior points sums its block in a
// local, one call of f a point, and the partials fold in thread order.
func TrapezoidShared(f Func, a, b float64, n, numThreads int) (float64, error) {
	if n < 2 {
		return Trapezoid(f, a, b, n) // no interior point to share, or ErrBadInterval
	}
	h := (b - a) / float64(n)
	sum := shm.ParallelReduceFloat64(min(shm.TeamSize(numThreads), n-1), shm.OpSum, func(tc *shm.ThreadContext) float64 {
		lo, hi := shm.StaticRange(n-1, tc.ThreadNum(), tc.NumThreads())
		part := 0.0
		for i := lo; i < hi; i++ {
			part += f(a + float64(i+1)*h)
		}
		return part
	})
	return (sum + (f(a)+f(b))/2) * h, nil
}

// TrapezoidMPI is the message-passing parallelization: each rank integrates
// a contiguous slab of the interval and an allreduce combines the slabs, so
// every rank returns the full integral. The local kernel runs under the
// rank's Compute gate so platform models constrain it faithfully.
func TrapezoidMPI(c *mpi.Comm, f Func, a, b float64, n int) (float64, error) {
	if n < 1 {
		return 0, ErrBadInterval
	}
	lo, hi := shm.StaticRange(n, c.Rank(), c.Size())
	h := (b - a) / float64(n)
	local := 0.0
	c.Compute(func() {
		// Each rank sums its trapezoids [lo, hi).
		for i := lo; i < hi; i++ {
			x0 := a + float64(i)*h
			local += (f(x0) + f(x0+h)) / 2 * h
		}
	})
	return mpi.Allreduce(c, local, mpi.Combine[float64](mpi.Sum))
}

// MonteCarloPi estimates π by dart throwing: the fraction of n random
// points in the unit square that land inside the quarter circle approaches
// π/4. The seed makes runs reproducible.
func MonteCarloPi(n int, seed int64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("integration: need at least 1 dart, got %d", n)
	}
	hits := countHits(n, seed)
	return 4 * float64(hits) / float64(n), nil
}

// MonteCarloPiShared splits the darts across threads. Each thread uses its
// own generator seeded from (seed, thread), so the estimate is deterministic
// for a given (n, seed, numThreads). The thread count is resolved by
// shm.TeamSize, and each thread's dart count is one region-level reduction
// partial: this is bulk per-thread work (a private RNG stream), so the
// whole-region ParallelReduceInt64 fits better than a parallel loop.
func MonteCarloPiShared(n int, seed int64, numThreads int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("integration: need at least 1 dart, got %d", n)
	}
	nt := shm.TeamSize(numThreads)
	hits := shm.ParallelReduceInt64(nt, shm.OpSum, func(tc *shm.ThreadContext) int64 {
		lo, hi := shm.StaticRange(n, tc.ThreadNum(), tc.NumThreads())
		return countHits(hi-lo, subSeed(seed, tc.ThreadNum()))
	})
	return 4 * float64(hits) / float64(n), nil
}

// MonteCarloPiMPI splits the darts across ranks; every rank returns the
// combined estimate.
func MonteCarloPiMPI(c *mpi.Comm, n int, seed int64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("integration: need at least 1 dart, got %d", n)
	}
	lo, hi := shm.StaticRange(n, c.Rank(), c.Size())
	var local int64
	c.Compute(func() {
		local = countHits(hi-lo, subSeed(seed, c.Rank()))
	})
	hits, err := mpi.Allreduce(c, local, mpi.Combine[int64](mpi.Sum))
	if err != nil {
		return 0, err
	}
	return 4 * float64(hits) / float64(n), nil
}

// countHits throws n darts with a generator seeded by seed and counts those
// inside the unit quarter circle.
func countHits(n int, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	var hits int64
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			hits++
		}
	}
	return hits
}

// subSeed derives a worker seed; the multiplier is an arbitrary odd
// constant keeping worker streams far apart.
func subSeed(seed int64, worker int) int64 {
	const goldenGamma = int64(0x9E3779B97F4A7C15 >> 1)
	return seed + int64(worker)*goldenGamma
}

// AbsError reports |estimate − π|, the accuracy figure the exemplar prints.
func AbsError(estimate float64) float64 { return math.Abs(estimate - math.Pi) }
