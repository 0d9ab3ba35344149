package sched

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/exemplars"
	"repro/internal/mpi"
)

// ProgramEnv is what the scheduler hands a program factory for one run.
type ProgramEnv struct {
	// Out is the job's output capture; programs print here, never to the
	// daemon's stdout.
	Out io.Writer
	// Ckpt is the job's private checkpoint namespace (a ckpt.Store that no
	// other job can read or clobber). Always non-nil; in-memory when the
	// scheduler has no checkpoint directory configured.
	Ckpt ckpt.Store
	// Attempt is the 1-based run attempt (retries and requeues increment
	// it), so test programs can model "fails N times, then succeeds".
	Attempt int
}

// Program builds the per-rank body for one run of a job. Submit calls it
// once to admit the job, where an error rejects the spec (ErrBadSpec), and
// the supervisor once per run; it must do no work but build the body.
type Program func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error)

// Registry maps program names to factories. Safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Program)} }

// Register adds a program; re-registering a name is an error (a tenant
// must never silently hijack another's program name).
func (r *Registry) Register(name string, p Program) error {
	if name == "" || p == nil {
		return fmt.Errorf("sched: register needs a name and a program")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("sched: program %q already registered", name)
	}
	r.m[name] = p
	return nil
}

// Resolve looks a program up.
func (r *Registry) Resolve(name string) (Program, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.m[name]
	return p, ok
}

// Names lists the registered programs, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns the standard program catalog: every exemplar of
// internal/exemplars, with its key=value args as the job's Args, under its
// name and, where it has a checkpoint-restart form fed the job's checkpoint
// namespace, under name-recover; plus the small utility programs the load
// tests and the classroom use.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(name string, p Program) {
		if err := r.Register(name, p); err != nil {
			panic(err)
		}
	}

	for _, e := range exemplars.All() {
		must(e.Name, func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
			a, err := e.Args(spec.Args, false)
			if err != nil {
				return nil, err
			}
			return e.Body(env.Out, a), nil
		})
		if e.Recover != nil { // pair with Recover: true (and, for a demo, KillRank)
			must(e.Name+"-recover", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
				a, err := e.Args(spec.Args, true)
				if err != nil {
					return nil, err
				}
				return e.RecoverBody(env.Out, a, env.Ckpt, "survivors"), nil
			})
		}
	}

	// sleep: every rank sleeps Args["ms"] milliseconds (default 10), then
	// the gang barriers. The load generator's stand-in for a short job
	// with a real gang dependency.
	must("sleep", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		d := time.Duration(argInt(spec.Args, "ms", 10)) * time.Millisecond
		return func(c *mpi.Comm) error {
			time.Sleep(d)
			return c.Barrier()
		}, nil
	})

	// spin: every rank computes for Args["us"] microseconds under the
	// platform's core gate (so oversubscription really contends), then
	// allreduces one value. The throughput benchmark's workload.
	must("spin", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		d := time.Duration(argInt(spec.Args, "us", 200)) * time.Microsecond
		return func(c *mpi.Comm) error {
			c.Compute(func() {
				for end := time.Now().Add(d); time.Now().Before(end); {
				}
			})
			_, err := mpi.Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
			return err
		}, nil
	})

	// flaky: fails the first Args["fail_attempts"] runs (default 1), then
	// succeeds — the retry ladder's test program.
	must("flaky", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		failUntil := argInt(spec.Args, "fail_attempts", 1)
		return func(c *mpi.Comm) error {
			if env.Attempt <= failUntil {
				if c.Rank() == c.Size()-1 {
					return fmt.Errorf("flaky: attempt %d of %d deliberate failures", env.Attempt, failUntil)
				}
				_, err := c.Recv(c.Size()-1, 0, nil) // victims of the failing rank
				return err
			}
			return c.Barrier()
		}, nil
	})

	// boom: always fails — the poison job the circuit breaker exists for.
	must("boom", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		return func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				return fmt.Errorf("boom: deliberate failure (attempt %d)", env.Attempt)
			}
			_, err := c.Recv(0, 0, nil)
			return err
		}, nil
	})

	return r
}

// argInt reads a utility program's integer arg with a default.
func argInt(args map[string]string, key string, def int) int {
	if v, ok := args[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}
