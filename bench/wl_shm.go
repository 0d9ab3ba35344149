package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/shm"
)

const (
	shmThreads   = 2
	trapezoidN   = 2_000_000
	ligands      = 2000
	forestSide   = 128
	forestProb   = 0.9 // nearly everything burns, so Steps is the grid's radius for every seed
	forestSteps  = 100 // asserted floor: each step is two team barriers
	adaptiveLo   = 0.001
	adaptiveTol  = 1e-10
	yardstickLen = trapezoidN // the yardstick sums the points the trapezoid exemplar does, on one thread
)

// oscillating is the adaptive integrand: sin(1/x) near 0 refines unevenly,
// which is what makes the task tree irregular.
func oscillating(x float64) float64 { return math.Sin(1 / x) }

// shmInputs holds the generated inputs and each exemplar's sequential answer.
type shmInputs struct {
	drug       drugdesign.Params
	forestSeed int64

	wantTrap     float64
	wantDrug     drugdesign.Result
	wantForest   forestfire.TrialResult
	wantAdaptive float64
}

func newShmInputs(seed int64) (*shmInputs, error) {
	in := &shmInputs{
		drug:       drugdesign.Params{Protein: drugdesign.DefaultProtein, NumLigands: ligands, MaxLigandLen: 6, Seed: seed},
		forestSeed: seed,
	}
	var err error
	if in.wantTrap, err = integration.Trapezoid(integration.QuarterCircle, 0, 1, trapezoidN); err != nil {
		return nil, err
	}
	if in.wantDrug, err = drugdesign.Sequential(in.drug); err != nil {
		return nil, err
	}
	in.wantForest = forestfire.SimulateHash(forestSide, forestSide, forestProb, seed)
	if in.wantForest.Steps < forestSteps {
		return nil, fmt.Errorf("shm-exemplars-t2: seed %d burns out in %d steps, need at least %d", seed, in.wantForest.Steps, forestSteps)
	}
	if in.wantAdaptive, err = integration.AdaptiveSimpson(oscillating, adaptiveLo, 1, adaptiveTol); err != nil {
		return nil, err
	}
	return in, nil
}

// op runs the four exemplars on two threads and compares each with its
// sequential answer.
func (in *shmInputs) op(tr *recorder) error {
	o := tr.begin("shm-exemplars-t2")
	t := o.now()
	trap, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, trapezoidN, shmThreads)
	if err != nil {
		return err
	}
	t = o.child("shm.trapezoid", t)
	drug, err := drugdesign.Shared(in.drug, shmThreads, shm.Dynamic(1))
	if err != nil {
		return err
	}
	t = o.child("shm.drugdesign", t)
	forest := forestfire.SimulateHashShared(forestSide, forestSide, forestProb, in.forestSeed, shmThreads)
	t = o.child("shm.forestfire", t)
	adaptive, err := integration.AdaptiveSimpsonShared(oscillating, adaptiveLo, 1, adaptiveTol, shmThreads)
	if err != nil {
		return err
	}
	o.child("shm.adaptive", t)
	o.done()
	switch {
	case math.Abs(trap-in.wantTrap) > 1e-9: // the two-thread sum associates differently
		return wrongf("trapezoid: %v, sequential %v", trap, in.wantTrap)
	case !reflect.DeepEqual(drug, in.wantDrug):
		return wrongf("drugdesign: %v, sequential %v", drug, in.wantDrug)
	case forest != in.wantForest:
		return wrongf("forestfire: %v, sequential %v", forest, in.wantForest)
	case adaptive != in.wantAdaptive:
		return wrongf("adaptive: %v, sequential %v", adaptive, in.wantAdaptive)
	}
	return nil
}

// meanFor calls fn until budget is spent and returns the mean time per call
// in µs.
func meanFor(budget time.Duration, fn func()) float64 {
	fn() // warm
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		fn()
		n++
	}
	return float64(time.Since(t0)) / float64(n) / 1e3
}

// shmProbes times the runtime's primitives with empty bodies: what a region,
// a barrier, one loop iteration's hand-out, a reduction and a task cost when
// they do no work.
func shmProbes(budget time.Duration) map[string]float64 {
	const (
		barriers = 1000
		iters    = 1 << 18
		tasks    = 1000
	)
	each := budget / 7
	handout := func(s shm.Schedule) float64 {
		return 1e3 * meanFor(each, func() { shm.ParallelFor(shmThreads, iters, s, func(int) {}) }) / iters
	}
	return map[string]float64{
		"shm.region_launch_us": meanFor(each, func() { shm.Parallel(shmThreads, func(*shm.ThreadContext) {}) }),
		"shm.barrier_us": meanFor(each, func() {
			shm.Parallel(shmThreads, func(tc *shm.ThreadContext) {
				for i := 0; i < barriers; i++ {
					tc.Barrier()
				}
			})
		}) / barriers,
		"shm.handout_static_ns":  handout(shm.Static()),
		"shm.handout_dynamic_ns": handout(shm.Dynamic(1)),
		"shm.handout_guided_ns":  handout(shm.Guided(1)),
		"shm.reduce_us": meanFor(each, func() {
			shm.ParallelReduceFloat64(shmThreads, shm.OpSum, func(*shm.ThreadContext) float64 { return 1 })
		}),
		"shm.task_us": meanFor(each, func() {
			shm.Parallel(shmThreads, func(tc *shm.ThreadContext) {
				tc.Single("spawn", func() {
					for i := 0; i < tasks; i++ {
						tc.Task(func() {})
					}
				})
				tc.Taskwait()
			})
		}) / tasks,
	}
}

func buildShmExemplars(seed int64) (*workload, error) {
	in, err := newShmInputs(seed)
	if err != nil {
		return nil, err
	}
	want := quarterCircleSum(yardstickLen)
	return &workload{
		newYard: func() (func() error, func(), error) {
			return func() error {
				if got := quarterCircleSum(yardstickLen); got != want {
					return fmt.Errorf("quarter-circle yardstick: %v, then %v", want, got)
				}
				return nil
			}, func() {}, nil
		},
		// The pool is the process's own and has no shutdown: a session forms
		// nothing, and set-up time is the first op's, workers parked or not.
		open: func(body func(*session) error) error { return body(&session{op: in.op}) },
		probe: func(ps *passStats, budget time.Duration) (map[string]float64, error) {
			return shmProbes(budget), nil
		},
	}, nil
}
