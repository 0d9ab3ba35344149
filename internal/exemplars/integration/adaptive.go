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

// ErrBadTolerance is returned for non-positive tolerances.
var ErrBadTolerance = errors.New("integration: tolerance must be positive")

// simpson computes Simpson's rule on [a, b].
func simpson(f Func, a, fa, b, fb float64) (mid, fmid, estimate float64) {
	mid = (a + b) / 2
	fmid = f(mid)
	estimate = (b - a) / 6 * (fa + 4*fmid + fb)
	return mid, fmid, estimate
}

// adaptiveSeq is the classic recursive refinement with Richardson error
// control.
func adaptiveSeq(f Func, a, fa, b, fb, whole, mid, fmid, tol float64, depth int) float64 {
	lm, flm, left := simpson(f, a, fa, mid, fmid)
	rm, frm, right := simpson(f, mid, fmid, b, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSeq(f, a, fa, mid, fmid, left, lm, flm, tol/2, depth-1) +
		adaptiveSeq(f, mid, fmid, b, fb, right, rm, frm, tol/2, depth-1)
}

// maxAdaptiveDepth bounds the recursion for pathological integrands.
const maxAdaptiveDepth = 40

// AdaptiveSimpson approximates ∫ₐᵇ f to the given absolute tolerance,
// sequentially.
func AdaptiveSimpson(f Func, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		return 0, ErrBadTolerance
	}
	fa, fb := f(a), f(b)
	mid, fmid, whole := simpson(f, a, fa, b, fb)
	return adaptiveSeq(f, a, fa, b, fb, whole, mid, fmid, tol, maxAdaptiveDepth), nil
}

// AdaptiveSimpsonShared is the task-parallel version: each refinement level
// above a work cutoff spawns its left half as an explicit task and recurses
// into the right half itself, so the irregular refinement tree spreads over
// the team. The other threads run the tasks at Single's implicit barrier, a
// task scheduling point that returns once the whole tree is done. The sums
// pair exactly as in AdaptiveSimpson, so the result is bit-equal to it.
func AdaptiveSimpsonShared(f Func, a, b, tol float64, numThreads int) (float64, error) {
	if tol <= 0 {
		return 0, ErrBadTolerance
	}
	var result float64
	shm.Parallel(numThreads, func(tc *shm.ThreadContext) {
		tc.Single("integrate", func() {
			fa, fb := f(a), f(b)
			mid, fmid, whole := simpson(f, a, fa, b, fb)
			result = adaptiveTask(tc, f, a, fa, b, fb, whole, mid, fmid, tol, maxAdaptiveDepth)
		})
	})
	return result, nil
}

// taskDepthCutoff stops spawning below the top 9 levels so leaf work stays
// sequential (task overhead would dominate). On the refinement tree of
// sin(1/x) over [0.001, 1] at 1e-10, the largest subtree below level 8
// holds 79 % of the evaluations, which caps two threads at 1.26x; below
// level 9 it holds 66 %.
const taskDepthCutoff = maxAdaptiveDepth - 9

func adaptiveTask(tc *shm.ThreadContext, f Func, a, fa, b, fb, whole, mid, fmid, tol float64, depth int) float64 {
	lm, flm, left := simpson(f, a, fa, mid, fmid)
	rm, frm, right := simpson(f, mid, fmid, b, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	if depth <= taskDepthCutoff {
		return adaptiveSeq(f, a, fa, mid, fmid, left, lm, flm, tol/2, depth-1) +
			adaptiveSeq(f, mid, fmid, b, fb, right, rm, frm, tol/2, depth-1)
	}
	var l float64
	g := tc.NewTaskGroup()
	g.Go(func() {
		l = adaptiveTask(tc, f, a, fa, mid, fmid, left, lm, flm, tol/2, depth-1)
	})
	r := adaptiveTask(tc, f, mid, fmid, b, fb, right, rm, frm, tol/2, depth-1)
	g.Wait()
	return l + r
}
