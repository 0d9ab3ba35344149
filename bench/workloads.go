package main

import (
	"errors"
	"fmt"
	"time"
)

// errWrong marks an op whose output was wrong. The passes count it as a
// failed op and go on; any other error ends the run.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// A session is one formed world, spun-up pool or started daemon. Its
// functions run on the goroutine open handed the session to.
type session struct {
	// op runs one operation and checks its answer cheaply. With a recorder
	// it also records a root span and one child span per call into the
	// layer under test; with nil it reads no extra clocks.
	op func(tr *recorder) error
	// verify checks the last op's whole output. The passes call it outside
	// every timed segment.
	verify func() error
}

// A workload is one row of the table in README.md: an op, the yardstick it
// is scored against, and the probes of the layer it was chosen to stress.
type workload struct {
	// newYard forms the yardstick and returns one call of it and its
	// tear-down. It is formed outside every session, so set-up time holds
	// none of it.
	newYard func() (yard func() error, closeYard func(), err error)
	// open forms what the op runs in, calls body on the goroutine that will
	// issue ops, and returns once everything it formed is torn down.
	open func(body func(*session) error) error
	// probe measures what spans around the op cannot: start-up costs,
	// message counts, micro-probes of the layer's primitives. ps holds the
	// traced run's own pass statistics; budget bounds the probe's time.
	probe func(ps *passStats, budget time.Duration) (map[string]float64, error)
}

// workloadSpec names a workload and builds it from a seed. Inputs are made
// here, once, from the seed alone; the program under test sees only them.
type workloadSpec struct {
	name  string
	why   string
	build func(seed int64) (*workload, error)
}

// workloads is the fixed list; BENCHMARK.json repeats the names and reasons.
// Each reason ends with the prediction made before anything was measured.
var workloads = []workloadSpec{
	{"pingpong-8B-local", "API, fastpath, mailbox match and wake-up with nothing else doing work; a mailbox or fastpath change moves this first, a wire or internal/shm change not at all", buildPingpongLocal},
	{"pingpong-8B-tcp", "per-frame cost of wire, session and tcp (headers, seq/ack, flush, hub relay); a wire, session or codec change moves this and stream-1MiB-tcp only", buildPingpongTCP},
	{"stream-1MiB-tcp", "the same TCP layer per byte (copies, CRC32C, pooled buffers): a per-frame win that costs bytes shows here; a mailbox change does not", buildStreamTCP},
	{"stream-1MiB-shm", "rendezvous staging and rings of the shm transport, no TCP data plane; mailbox, wire and internal/shm changes should all leave it still", buildStreamShm},
	{"pagerank-np2-local", "exemplar time to solution against the sequential oracle (plan build, alltoallv, allreduce, compute); a mailbox change moves it less than the ping-pong", buildPagerank},
	{"shm-exemplars-t2", "the other runtime (pool launch, static and dynamic hand-out, reductions, per-step barriers, tasks), no mpi at all; only an internal/shm change moves it", buildShmExemplars},
	{"sched-closed-c2", "job turnaround at saturation: admission, dispatch, supervisor, one mpi world start and tear-down per job; a sched change moves this only, a mailbox change a little", buildSched},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// medianOf times fn n times and returns the median, in µs.
func medianOf(n int, fn func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0)) / 1e3
	}
	return median(xs), nil
}
