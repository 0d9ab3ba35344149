package integration

import (
	"errors"
	"math"

	"repro/internal/shm"
)

// Adaptive quadrature: the "to explore" extension the handout's exemplar
// section points students toward after the fixed-grid trapezoidal rule.
// Adaptive Simpson recursion subdivides only where the integrand is hard,
// which makes the workload irregular — exactly the shape explicit tasks
// (shm.TaskGroup) handle and static loops cannot.

// ErrBadTolerance is returned for a tolerance that is not positive (NaN
// included).
var ErrBadTolerance = errors.New("integration: tolerance must be positive")

// simpson computes Simpson's rule on [a, b].
func simpson(f Func, a, fa, b, fb float64) (mid, fmid, estimate float64) {
	mid = (a + b) / 2
	fmid = f(mid)
	estimate = (b - a) / 6 * (fa + 4*fmid + fb)
	return mid, fmid, estimate
}

// refine is the classic recursive refinement with Richardson error control.
// It stops where the depth budget is spent, where the error estimate is
// within 15·tol, or where the estimate is NaN (an integrand that is NaN on a
// branch refines no further). Given a team (tc non-nil), a node whose
// estimate is at least spawnRatio times that threshold spawns its left half
// as a task and refines the right half itself; below it, the subtree runs
// sequentially. Either way the halves' sums pair as l + r, so the result is
// the same bits with or without a team.
func refine(tc *shm.ThreadContext, f Func, a, fa, b, fb, whole, mid, fmid, tol float64, depth int) float64 {
	lm, flm, left := simpson(f, a, fa, mid, fmid)
	rm, frm, right := simpson(f, mid, fmid, b, fb)
	estimate := math.Abs(left + right - whole)
	if depth <= 0 || !(estimate > 15*tol) {
		return left + right + (left+right-whole)/15
	}
	if tc == nil || estimate < 15*tol*spawnRatio {
		return refine(nil, f, a, fa, mid, fmid, left, lm, flm, tol/2, depth-1) +
			refine(nil, f, mid, fmid, b, fb, right, rm, frm, tol/2, depth-1)
	}
	// The group and the left result share one allocation, so a spawn costs
	// that and the task's closure.
	h := &struct {
		g shm.TaskGroup
		l float64
	}{g: *tc.NewTaskGroup()}
	h.g.Go(func() { h.l = refine(tc, f, a, fa, mid, fmid, left, lm, flm, tol/2, depth-1) })
	r := refine(tc, f, mid, fmid, b, fb, right, rm, frm, tol/2, depth-1)
	h.g.Wait()
	return h.l + r
}

// spawnRatio sets where a task pays for itself. Where f is smooth, a halving
// cuts the error estimate about 32-fold and the tolerance 2-fold, so a node
// whose estimate is R times its stop threshold has about log₁₆ R levels
// below it: at 1e7, about six. A depth cutoff cannot follow the work: on
// sin(1/x) over [0.001, 1] at 1e-10, the largest subtree below depth 9
// holds 66 % of the evaluations.
const spawnRatio = 1e7

// maxAdaptiveDepth bounds the recursion for pathological integrands.
const maxAdaptiveDepth = 40

// AdaptiveSimpson approximates ∫ₐᵇ f to the given absolute tolerance,
// sequentially.
func AdaptiveSimpson(f Func, a, b, tol float64) (float64, error) {
	if !(tol > 0) {
		return 0, ErrBadTolerance
	}
	fa, fb := f(a), f(b)
	mid, fmid, whole := simpson(f, a, fa, b, fb)
	return refine(nil, f, a, fa, b, fb, whole, mid, fmid, tol, maxAdaptiveDepth), nil
}

// AdaptiveSimpsonShared is the task-parallel version: a refinement node
// whose error estimate predicts a deep subtree spawns its left half as an
// explicit task and recurses into the right half itself, so the irregular
// refinement tree spreads over the team. The other threads run the tasks
// at Single's implicit barrier, a task scheduling point that returns once
// the whole tree is done. The sums pair exactly as in AdaptiveSimpson, so
// the result is bit-equal to it.
func AdaptiveSimpsonShared(f Func, a, b, tol float64, numThreads int) (float64, error) {
	if !(tol > 0) {
		return 0, ErrBadTolerance
	}
	var result float64
	shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
		tc.Single("integrate", func() {
			fa, fb := f(a), f(b)
			mid, fmid, whole := simpson(f, a, fa, b, fb)
			result = refine(tc, f, a, fa, b, fb, whole, mid, fmid, tol, maxAdaptiveDepth)
		})
	})
	return result, nil
}
