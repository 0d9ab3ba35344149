// Package sched is the multi-tenant gang-scheduling service: a
// long-running job queue in front of the mpi runtime, built so a shared
// teaching cluster keeps serving while individual workloads fail. The
// paper's distributed module runs on exactly this kind of substrate — many
// students submitting MPI jobs to one Jupyter-fronted cluster — and the
// properties that matter there are robustness properties:
//
//   - Admission control and backpressure: the queue is bounded globally and
//     per tenant; a burst beyond the bound is rejected with a retry hint
//     (HTTP 429 + Retry-After) instead of growing without limit.
//   - Gang placement: a job's ranks all start together on the modeled
//     platform's nodes (cluster.Platform core counts, configurable
//     oversubscription), with small jobs backfilled into holes behind a
//     wide job — bounded by a starvation guard.
//   - Per-job supervision: every run gets the fault machinery wired in
//     (per-op deadlines, seeded fault plans, optional ULFM-style recovery),
//     a wall-clock timeout, retry with exponential backoff and jitter, and
//     a poison-job circuit breaker: a job that keeps failing is quarantined
//     with its fault report, never requeued hot.
//   - Graceful degradation: a node silent for the heartbeat grace window (or
//     killed via the chaos endpoint) is declared dead; its gangs are
//     interrupted and requeued on the surviving nodes — shrunk to a smaller
//     width when the job allows it — and the scheduler keeps admitting work
//     at reduced capacity.
//   - Artifact capture: each job's output and final status are committed to
//     a per-job directory with the same fsync-then-rename discipline as the
//     checkpoint store, so a crash never publishes a torn artifact.
//
// The scheduler reads the time, and arms every timer, through one clock.
// Each timer belongs to what it acts on: a run's timeout to its supervisor,
// a backoff to its retrying job, a grace window to its silenced node. New
// starts no goroutine, and Close stops every timer it finds armed.
//
// The service is exposed over an HTTP+JSON API (see NewHandler) by the
// schedd daemon and driven by the jobctl client.
package sched

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// State is a job's position in its lifecycle.
type State int

const (
	// StateQueued: admitted, waiting for placement (first run or requeue).
	StateQueued State = iota + 1
	// StateRunning: the gang is placed and its world is executing.
	StateRunning
	// StateRetrying: the last run failed; the job is waiting out its
	// backoff before re-entering the queue.
	StateRetrying
	// StateSucceeded: terminal — a run completed without error.
	StateSucceeded
	// StateCanceled: terminal — canceled by the client (or scheduler
	// shutdown) while queued, retrying, or running.
	StateCanceled
	// StateQuarantined: terminal — the poison-job circuit breaker fired:
	// the job failed more times than its retry budget (or exhausted its
	// infrastructure requeue budget) and is parked with its failure
	// history and fault report, never to be requeued hot.
	StateQuarantined
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateRetrying:
		return "retrying"
	case StateSucceeded:
		return "succeeded"
	case StateCanceled:
		return "canceled"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final: the job holds no resources
// and will never run again.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateCanceled || s == StateQuarantined
}

// JobSpec is a submitted job. The zero values of the optional fields mean
// "use the scheduler's defaults".
type JobSpec struct {
	// ID names the job; empty means the scheduler assigns one. IDs must be
	// unique for the daemon's lifetime — a duplicate is rejected at
	// admission (the client is retrying a submit whose response it lost,
	// and must not enqueue the job twice).
	ID string `json:"id,omitempty"`
	// Tenant is the submitting principal; required. Fairness and quotas
	// are per tenant.
	Tenant string `json:"tenant"`
	// Program is the registered program name (see Registry).
	Program string `json:"program"`
	// Args are program-specific parameters (e.g. {"ms": "50"} for sleep).
	Args map[string]string `json:"args,omitempty"`
	// Width is the gang width: how many ranks start together.
	Width int `json:"width"`
	// MinWidth > 0 marks the job elastic: when node failures leave the
	// cluster too small for Width, the job may run shrunk, down to
	// MinWidth. Zero means rigid — the job waits for capacity instead.
	MinWidth int `json:"min_width,omitempty"`
	// OpDeadline bounds each MPI operation (mpi.WithDeadline): a stalled
	// job becomes a failed run with a who-waits-on-whom report instead of
	// occupying its slots forever. Zero uses the scheduler default.
	OpDeadline time.Duration `json:"op_deadline,omitempty"`
	// Timeout bounds the whole run's wall clock; an expiry counts as a
	// failure (it spends retry budget). Zero uses the scheduler default.
	Timeout time.Duration `json:"timeout,omitempty"`
	// MaxRetries is the poison-job circuit breaker threshold: how many
	// FAILED runs the job may accumulate before quarantine. Zero uses the
	// scheduler default; negative means no retries (quarantine on the
	// first failure).
	MaxRetries int `json:"max_retries,omitempty"`
	// Recover runs the world with mpi.WithRecovery: rank death inside the
	// job shrinks the gang ULFM-style instead of failing the run. The
	// program must be recovery-aware (the *-recover registry entries).
	Recover bool `json:"recover,omitempty"`
	// KillRank injects a seeded kill of that rank (nil = none): the
	// teaching/chaos knob, same plan mpirun -kill-rank builds. Combined
	// with Recover the job survives it; without, the run fails and the
	// retry/quarantine machinery takes over.
	KillRank  *int `json:"kill_rank,omitempty"`
	KillAfter int  `json:"kill_after,omitempty"`
}

// JobStatus is the externally visible snapshot of one job.
type JobStatus struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Program string `json:"program"`
	State   string `json:"state"`
	// Width is the requested gang width; RanWidth the width of the current
	// (or last) run — smaller when an elastic job shrank onto a degraded
	// cluster.
	Width    int `json:"width"`
	RanWidth int `json:"ran_width,omitempty"`
	// Placement is the per-rank node assignment of the current run.
	Placement []int `json:"placement,omitempty"`
	Attempts  int   `json:"attempts"`
	Failures  int   `json:"failures"`
	// Requeues counts infrastructure-driven reruns (node death, drain);
	// they do not spend the retry budget.
	Requeues  int       `json:"requeues"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Error is the last run's failure, History every failure so far, and
	// Faults the injected faults the fault plan reported — together the
	// quarantine postmortem.
	Faults  []string `json:"faults,omitempty"`
	Error   string   `json:"error,omitempty"`
	History []string `json:"history,omitempty"`
}

// job is the scheduler's internal record. Fields are guarded by the
// scheduler mutex except where noted.
type job struct {
	spec       JobSpec
	state      State
	submitted  time.Time
	started    time.Time
	finished   time.Time
	attempts   int
	failures   int
	requeues   int
	placement  []int // per-rank node ids while running
	ranWidth   int
	skipsSince time.Time // when this queued job was first skipped by dispatch
	history    []string
	lastErr    string
	report     *mpi.FaultReport
	backoff    timer // armed while retrying; Cancel and Close stop it

	out *logBuffer
	// ckpt is the job's private checkpoint namespace, created at first
	// start and kept across retries so recovery-aware programs resume from
	// their own checkpoints.
	ckpt ckpt.Store

	// interrupt state: its own lock so Cancel and the chaos path abort a
	// world after releasing the scheduler lock, and so a supervisor mid-run
	// can consult it without the scheduler lock.
	intMu    sync.Mutex
	intCause error     // first interrupt wins
	comm     *mpi.Comm // any rank's comm of the current run, for Abort
}

func newJob(spec JobSpec, now time.Time) *job {
	return &job{
		spec:      spec,
		state:     StateQueued,
		submitted: now,
		out:       newLogBuffer(maxLogBytes),
	}
}

// interrupt requests the job's current run stop with the given cause. The
// first cause wins; the world (if one is running) is aborted so blocked
// ranks unblock promptly. Safe from any goroutine.
func (j *job) interrupt(cause error) {
	j.intMu.Lock()
	if j.intCause != nil {
		j.intMu.Unlock()
		return
	}
	j.intCause = cause
	c := j.comm
	j.intMu.Unlock()
	if c != nil {
		c.Abort(cause)
	}
}

// interruptCause returns the latched cause, nil if never interrupted.
func (j *job) interruptCause() error {
	j.intMu.Lock()
	defer j.intMu.Unlock()
	return j.intCause
}

// registerComm hands the supervisor a live comm of the current run. If the
// job was interrupted before the world came up, the world is aborted
// immediately — the cancel-before-start race.
func (j *job) registerComm(c *mpi.Comm) {
	j.intMu.Lock()
	cause := j.intCause
	if j.comm == nil {
		j.comm = c
	}
	j.intMu.Unlock()
	if cause != nil {
		c.Abort(cause)
	}
}

// resetRun clears the per-run interrupt state before a requeue or retry.
// Must only be called when no run is in flight.
func (j *job) resetRun() {
	j.intMu.Lock()
	j.intCause = nil
	j.comm = nil
	j.intMu.Unlock()
}

// status snapshots the job; caller holds the scheduler mutex.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.spec.ID,
		Tenant:    j.spec.Tenant,
		Program:   j.spec.Program,
		State:     j.state.String(),
		Width:     j.spec.Width,
		RanWidth:  j.ranWidth,
		Attempts:  j.attempts,
		Failures:  j.failures,
		Requeues:  j.requeues,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Error:     j.lastErr,
	}
	if len(j.placement) > 0 {
		st.Placement = append([]int(nil), j.placement...)
	}
	if len(j.history) > 0 {
		st.History = append([]string(nil), j.history...)
	}
	if j.report != nil {
		for _, f := range j.report.Injected() {
			st.Faults = append(st.Faults, f.String())
		}
	}
	return st
}

// maxLogBytes bounds each job's in-memory output capture; a job that
// prints more gets the tail truncated with a marker. Robustness first: a
// thousand chatty jobs must not become an OOM.
const maxLogBytes = 1 << 20

// logBuffer is a bounded, concurrency-safe capture of one job's output.
// Rank goroutines write concurrently; the logs endpoint snapshots.
type logBuffer struct {
	mu        sync.Mutex
	buf       []byte
	limit     int
	truncated bool
}

func newLogBuffer(limit int) *logBuffer {
	return &logBuffer{limit: limit}
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	room := b.limit - len(b.buf)
	if room <= 0 {
		b.truncated = true
		return len(p), nil
	}
	if len(p) > room {
		b.buf = append(b.buf, p[:room]...)
		b.truncated = true
		return len(p), nil
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// Snapshot returns the captured output (with a truncation marker when the
// bound was hit).
func (b *logBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf...)
	if b.truncated {
		out = append(out, []byte("\n[output truncated]\n")...)
	}
	return out
}
