package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// startLocked transitions a dequeued job to Running and hands it to a
// supervisor goroutine. Caller holds the scheduler mutex and has already
// charged the placement's slots.
func (s *Scheduler) startLocked(j *job, width int, placement []int) {
	j.resetRun()
	j.state = StateRunning
	j.attempts++
	j.started = s.clock.now()
	j.ranWidth = width
	j.placement = placement
	j.skipsSince = time.Time{}
	if j.ckpt == nil {
		j.ckpt = s.jobCkptStore(j.spec.ID)
	}
	s.tenants[j.spec.Tenant].running++
	s.cfg.Logf("sched: job %s attempt %d: width %d on nodes %v", j.spec.ID, j.attempts, width, nodesOf(placement))
	s.wg.Add(1)
	go s.supervise(j, width, append([]int(nil), placement...), j.attempts)
}

// jobCkptStore builds a job's private checkpoint namespace: a FileStore
// subdirectory when the scheduler has a checkpoint root, an in-memory
// store otherwise. Either way it lives on the job, so retries resume from
// the checkpoints earlier attempts committed.
func (s *Scheduler) jobCkptStore(id string) ckpt.Store {
	if s.ckptRoot != nil {
		if ns, err := s.ckptRoot.Namespace(id); err == nil {
			return ns
		}
		// IDs are validated with the namespace grammar at admission, so
		// this is an I/O failure; degrade to memory rather than refuse.
		s.cfg.Logf("sched: job %s: checkpoint namespace unavailable, using memory", id)
	}
	return ckpt.NewMemStore()
}

// runOptions assembles the mpi options of one run: the platform's options
// for this placement (cluster's Platform.Options, with the shared core gate:
// all jobs contend for the platform's real cores), the per-op deadline, and
// the job's fault plan and recovery mode.
func (s *Scheduler) runOptions(spec JobSpec, width int, placement []int) ([]mpi.Option, *mpi.FaultReport) {
	opDeadline := spec.OpDeadline
	if opDeadline <= 0 {
		opDeadline = s.cfg.DefaultOpDeadline
	}
	opts := append(s.cfg.Platform.Options(placement, s.gate.Run), mpi.WithDeadline(opDeadline))
	var rep *mpi.FaultReport
	if spec.KillRank != nil && *spec.KillRank < width {
		rep = &mpi.FaultReport{}
		opts = append(opts,
			mpi.WithFaults(mpi.FaultPlan{
				Seed: s.cfg.Seed,
				Rules: []mpi.FaultRule{{
					Src: *spec.KillRank, Dst: mpi.AnySource, Tag: mpi.AnyTag,
					SkipFirst: spec.KillAfter, Count: 1, Action: mpi.FaultKillRank,
				}},
			}),
			mpi.WithFaultReport(rep),
		)
	}
	if spec.Recover {
		opts = append(opts, mpi.WithRecovery())
	}
	return opts, rep
}

// supervise runs one attempt of a job and classifies the outcome. It is
// the per-job supervisor: wall-clock timeout, interrupt plumbing, then
// the retry / requeue / quarantine decision.
func (s *Scheduler) supervise(j *job, width int, placement []int, attempt int) {
	defer s.wg.Done()
	spec := j.spec // immutable after admission
	opts, rep := s.runOptions(spec, width, placement)
	env := ProgramEnv{Out: j.out, Ckpt: j.ckpt, Attempt: attempt}

	var runErr error
	factory, ok := s.cfg.Registry.Resolve(spec.Program)
	if !ok {
		// Unregistered since admission (not possible with the stock
		// registry, which has no Unregister) — a failed run, not a crash.
		runErr = fmt.Errorf("sched: program %q vanished from the registry", spec.Program)
	} else if body, err := factory(spec, env); err != nil {
		runErr = fmt.Errorf("sched: building %q: %w", spec.Program, err)
	} else {
		timeout := spec.Timeout
		if timeout <= 0 {
			timeout = s.cfg.DefaultTimeout
		}
		expiry := s.clock.afterFunc(timeout, func() {
			j.interrupt(fmt.Errorf("sched: job %s exceeded its %s wall-clock budget: %w", spec.ID, timeout, ErrJobTimeout))
		})
		runErr = mpi.Run(width, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				j.registerComm(c)
			}
			return body(c)
		}, opts...)
		expiry.Stop()
	}
	s.finishRun(j, rep, runErr)
}

// finishRun settles one completed attempt: release the placement, then
// decide succeeded / canceled / requeue / retry / quarantine.
//
// The decision table (also in the README):
//
//	run returned nil            -> succeeded (even if a cancel raced in)
//	interrupted by cancel       -> canceled, terminal
//	interrupted by node death   -> requeued (no retry budget spent),
//	                               quarantined past maxRequeues
//	anything else (program
//	error, op deadline, wall-
//	clock timeout, rank kill)   -> failed: retry with backoff, or
//	                               quarantined once failures exceed the
//	                               job's budget (the poison-job breaker)
func (s *Scheduler) finishRun(j *job, rep *mpi.FaultReport, runErr error) {
	s.mu.Lock()
	s.releaseLocked(j.placement)
	j.placement = nil
	s.tenants[j.spec.Tenant].running--
	if rep != nil {
		j.report = rep
	}
	cause := j.interruptCause()
	commit := false
	switch {
	case runErr == nil:
		s.finishLocked(j, StateSucceeded, "")
		j.lastErr = ""
		j.history = append(j.history, fmt.Sprintf("attempt %d: succeeded (width %d)", j.attempts, j.ranWidth))
		commit = true

	case cause != nil && errors.Is(cause, errCancelRun):
		s.finishLocked(j, StateCanceled, cause.Error())
		commit = true

	case cause != nil && errors.Is(cause, ErrNodeDown) && !s.closed:
		j.requeues++
		s.requeues++
		j.history = append(j.history, fmt.Sprintf("attempt %d: %v", j.attempts, cause))
		if j.requeues > maxRequeues {
			s.finishLocked(j, StateQuarantined, fmt.Sprintf("evicted %d times; giving up: %v", j.requeues, cause))
			commit = true
		} else {
			s.enqueueLocked(j)
			s.cfg.Logf("sched: job %s requeued after eviction (%d so far)", j.spec.ID, j.requeues)
		}

	case s.closed:
		// Shutdown raced the run's failure; don't spin up a retry ladder
		// the closing scheduler will never run.
		s.finishLocked(j, StateCanceled, "canceled: scheduler shutdown")
		commit = true

	default:
		j.failures++
		s.failures++
		j.lastErr = runErr.Error()
		j.history = append(j.history, fmt.Sprintf("attempt %d failed: %v", j.attempts, runErr))
		if budget := s.retryBudget(j.spec); j.failures > budget {
			s.finishLocked(j, StateQuarantined,
				fmt.Sprintf("poison job: %d failures exceed the %d-retry budget: %v", j.failures, budget, runErr))
			commit = true
		} else {
			j.state = StateRetrying
			delay := s.backoff(j.failures)
			s.cfg.Logf("sched: job %s failed (%d/%d), retrying in %s", j.spec.ID, j.failures, budget, delay.Round(time.Millisecond))
			j.backoff = s.clock.afterFunc(delay, func() { s.requeueAfterBackoff(j) })
		}
	}
	s.dispatchLocked()
	s.mu.Unlock()
	if commit {
		s.commitArtifact(j)
	}
}

// requeueAfterBackoff returns a retrying job to the queue, unless a
// cancel (or shutdown) stopped its timer too late and won the race.
func (s *Scheduler) requeueAfterBackoff(j *job) {
	s.mu.Lock()
	if j.state != StateRetrying {
		s.mu.Unlock()
		return
	}
	s.enqueueLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
}
