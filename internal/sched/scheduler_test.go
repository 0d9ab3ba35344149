package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// testPlatform is a latency-free cluster so tests measure scheduling, not
// the modeled network.
func testPlatform(nodes, cores int) cluster.Platform {
	return cluster.Platform{
		Name:            "testbox",
		Nodes:           nodes,
		CoresPerNode:    cores,
		HostnamePattern: "test-%d",
	}
}

// newTestSched builds a scheduler with fast test timings; zero cfg fields
// get aggressive defaults so tests finish in milliseconds, not minutes.
func newTestSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Platform.Name == "" {
		cfg.Platform = testPlatform(2, 2)
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 5 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 20 * time.Millisecond
	}
	if cfg.StarveAfter == 0 {
		cfg.StarveAfter = 150 * time.Millisecond
	}
	if cfg.HeartbeatGrace == 0 {
		cfg.HeartbeatGrace = 50 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// registryWithHang adds a program whose ranks block in Recv forever: only
// an external interrupt (cancel, node kill) can end it — the sharpest
// probe of the revoke-and-reap path.
func registryWithHang(t *testing.T) *Registry {
	t.Helper()
	r := DefaultRegistry()
	err := r.Register("hang", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		return func(c *mpi.Comm) error {
			_, err := c.Recv(mpi.AnySource, 0, nil)
			return err
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitState(t *testing.T, s *Scheduler, id string, want State, timeout time.Duration) JobStatus {
	t.Helper()
	return waitFor(t, s, id, "state "+want.String(), func(st JobStatus) bool { return st.State == want.String() }, timeout)
}

// waitFor polls a job's status until ok holds, failing the test after timeout.
func waitFor(t *testing.T, s *Scheduler, id, want string, ok func(JobStatus) bool, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: state %s after %d attempts, want %s (error %q, history %v)", id, st.State, st.Attempts, want, st.Error, st.History)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func intPtr(n int) *int { return &n }

// TestSubmitRunsToCompletion: the happy path — a real exemplar program
// runs as a gang and its output lands in the job's log capture.
func TestSubmitRunsToCompletion(t *testing.T) {
	s := newTestSched(t, Config{})
	st, err := s.Submit(JobSpec{Tenant: "alice", Program: "integration", Width: 4, Args: map[string]string{"n": "100000"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != "queued" {
		t.Fatalf("submit status = %+v, want an assigned ID in state queued", st)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 10*time.Second)
	if final.Attempts != 1 || final.RanWidth != 4 {
		t.Fatalf("final = %+v, want 1 attempt at width 4", final)
	}
	logs, err := s.Logs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logs), "pi ≈ 3.141") {
		t.Fatalf("logs = %q, want the integration output", logs)
	}
}

// TestZeroWidthGangRejected: admission control refuses a gang with no
// ranks (and a negative one) before it can ever occupy the queue.
func TestZeroWidthGangRejected(t *testing.T) {
	s := newTestSched(t, Config{})
	for _, w := range []int{0, -3} {
		_, err := s.Submit(JobSpec{Tenant: "alice", Program: "sleep", Width: w})
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("width %d: err = %v, want ErrBadSpec", w, err)
		}
	}
	if got := s.Stats().Admitted; got != 0 {
		t.Fatalf("admitted = %d, want 0", got)
	}
}

// TestDuplicateJobID: a client retrying a submit whose response it lost
// must not enqueue the job twice.
func TestDuplicateJobID(t *testing.T) {
	s := newTestSched(t, Config{})
	spec := JobSpec{ID: "once", Tenant: "alice", Program: "sleep", Width: 1}
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("resubmit err = %v, want ErrDuplicateID", err)
	}
	if got := s.Stats().Admitted; got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
}

// badSpecs are specs admission refuses on testPlatform(2, 2): each is
// ErrBadSpec, naming the bad arg where it has one.
var badSpecs = []struct {
	name string
	spec JobSpec
}{
	{"no tenant", JobSpec{Program: "sleep", Width: 1}},
	{"unknown program", JobSpec{Tenant: "a", Program: "no-such", Width: 1}},
	{"width beyond cluster", JobSpec{Tenant: "a", Program: "sleep", Width: 5}},
	{"min width beyond cluster", JobSpec{Tenant: "a", Program: "sleep", Width: 9, MinWidth: 8}},
	{"min width above width", JobSpec{Tenant: "a", Program: "sleep", Width: 2, MinWidth: 3}},
	{"kill rank outside gang", JobSpec{Tenant: "a", Program: "sleep", Width: 2, KillRank: intPtr(2)}},
	{"negative kill rank", JobSpec{Tenant: "a", Program: "sleep", Width: 2, KillRank: intPtr(-1)}},
	{"path traversal id", JobSpec{ID: "../escape", Tenant: "a", Program: "sleep", Width: 1}},
	{"non-integer exemplar arg", JobSpec{Tenant: "a", Program: "integration", Width: 1, Args: map[string]string{"n": "1e6"}}},
	{"misspelt exemplar arg", JobSpec{Tenant: "a", Program: "drugdesign", Width: 1, Args: map[string]string{"ligand": "40"}}},
	{"bad recovery arg", JobSpec{Tenant: "a", Program: "pagerank-recover", Width: 1, Args: map[string]string{"ckpt_every": "often"}}},
	{"out-of-range exemplar arg", JobSpec{Tenant: "a", Program: "integration", Width: 1, Args: map[string]string{"n": "0"}}},
	{"fixed exemplar size", JobSpec{Tenant: "a", Program: "pagerank", Width: 1, Args: map[string]string{"vertices": "1"}}},
	{"arg the recovery form ignores", JobSpec{Tenant: "a", Program: "forestfire-recover", Width: 1, Args: map[string]string{"trials": "100"}}},
	{"checkpoint arg on a plain form", JobSpec{Tenant: "a", Program: "forestfire", Width: 1, Args: map[string]string{"ckpt_every": "2"}}},
}

// TestBadSpecsRejected: the rest of the admission matrix.
func TestBadSpecsRejected(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(2, 2)})
	for _, tc := range badSpecs {
		if _, err := s.Submit(tc.spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", tc.name, err)
		}
		for key := range tc.spec.Args { // the error names the bad key
			if _, err := s.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s: err = %v, want it to name %q", tc.name, err, key)
			}
		}
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Errorf("admitted = %d, want every bad spec refused before a run", st.Admitted)
	}
	// An elastic job wider than the cluster is fine when MinWidth fits:
	// it runs shrunk.
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 9, MinWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 10*time.Second)
	if final.RanWidth != 4 {
		t.Fatalf("ran width = %d, want the full cluster's 4", final.RanWidth)
	}
}

// TestSubmitPlacesBeforeReturning: Submit runs the dispatch pass itself, so
// on an idle scheduler the job is placed before Submit returns, and the
// "admitted" log line comes before the run's "attempt 1" line. Submit still
// returns the queued snapshot it admitted.
func TestSubmitPlacesBeforeReturning(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := newTestSched(t, Config{Registry: registryWithHang(t), Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	sub, err := s.Submit(JobSpec{ID: "placed", Tenant: "a", Program: "hang", Width: 2, OpDeadline: time.Minute, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != "queued" || sub.Attempts != 0 {
		t.Fatalf("submit status = %+v, want the queued snapshot with 0 attempts", sub)
	}
	if st, _ := s.Status(sub.ID); st.State != "running" || st.Attempts != 1 {
		t.Fatalf("status right after Submit = %s after %d attempts, want running after 1", st.State, st.Attempts)
	}
	mu.Lock()
	got := append([]string(nil), lines...)
	mu.Unlock()
	if len(got) != 2 || !strings.HasPrefix(got[0], "sched: admitted placed ") || !strings.HasPrefix(got[1], "sched: job placed attempt 1:") {
		t.Fatalf("log lines %q, want admitted then attempt 1", got)
	}
}

// TestFinishPlacesNextJob: a run's end runs the dispatch pass before it
// releases the scheduler lock, so on a one-slot platform the job queued
// behind it is running as soon as the first one is seen to succeed.
func TestFinishPlacesNextJob(t *testing.T) {
	release := make(chan struct{})
	reg := registryWithHang(t)
	err := reg.Register("held", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		return func(c *mpi.Comm) error {
			<-release
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Logf runs inside finishRun, under the lock that finishRun's dispatch
	// pass holds too: a Status taken after this signal waits for that pass.
	succeeded := make(chan struct{})
	s := newTestSched(t, Config{Platform: testPlatform(1, 1), Registry: reg, Logf: func(format string, args ...any) {
		if strings.HasPrefix(fmt.Sprintf(format, args...), "sched: job first -> succeeded") {
			close(succeeded)
		}
	}})
	if _, err := s.Submit(JobSpec{ID: "first", Tenant: "a", Program: "held", Width: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{ID: "second", Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute, Timeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status("second"); st.State != "queued" {
		t.Fatalf("second job state = %s while the first holds the slot, want queued", st.State)
	}
	close(release)
	<-succeeded
	if st, _ := s.Status("second"); st.State != "running" || st.Attempts != 1 {
		t.Fatalf("second job state = %s after %d attempts once the first finished, want running after 1", st.State, st.Attempts)
	}
}

// TestCancelWhileQueued: a queued job is removed from its tenant queue
// and lands terminal without ever running.
func TestCancelWhileQueued(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(1, 1), Registry: registryWithHang(t)})
	blocker, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 5*time.Second)
	queued, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(queued.ID, "changed my mind")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" || st.Attempts != 0 {
		t.Fatalf("canceled status = %+v, want canceled with 0 attempts", st)
	}
	if got := s.Stats().Queued; got != 0 {
		t.Fatalf("queued = %d after cancel, want 0", got)
	}
	// Canceling again reports the terminal state, not a second cancel.
	if _, err := s.Cancel(queued.ID, ""); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel err = %v, want ErrTerminal", err)
	}
}

// TestCancelWhileRunningRevokesAndReaps: the gang's ranks are blocked in
// receives that nothing will ever satisfy; cancel must revoke the world
// (mpi abort) so they unblock, and the supervisor must reap the job into
// the canceled state promptly.
func TestCancelWhileRunningRevokesAndReaps(t *testing.T) {
	s := newTestSched(t, Config{Registry: registryWithHang(t)})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 4, OpDeadline: time.Minute, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 5*time.Second)
	start := time.Now()
	if _, err := s.Cancel(st.ID, "operator said stop"); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateCanceled, 5*time.Second)
	if reaped := time.Since(start); reaped > 3*time.Second {
		t.Fatalf("reap took %s, want prompt revoke", reaped)
	}
	if !strings.Contains(final.Error, "operator said stop") {
		t.Fatalf("final error = %q, want the cancel reason", final.Error)
	}
	stats := s.Stats()
	if stats.Running != 0 || stats.FreeSlots != stats.TotalSlots {
		t.Fatalf("stats = %+v, want the gang's slots released", stats)
	}
}

// TestCancelWhileRetrying: a job waiting out its backoff is canceled one
// nanosecond before the timer is due. Cancel stops the timer, and at the
// due time the job is still canceled, not resurrected.
func TestCancelWhileRetrying(t *testing.T) {
	s, clk := newManualSched(t, Config{RetryBase: 2 * time.Second, RetryMax: 4 * time.Second})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "boom", Width: 1, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRetrying, 5*time.Second)
	clk.advance(clk.untilNext(t) - time.Nanosecond)
	if got, _ := s.Status(st.ID); got.State != "retrying" || got.Attempts != 1 {
		t.Fatalf("1ns before the backoff ends: %s after %d attempts, want retrying after 1", got.State, got.Attempts)
	}
	if _, err := s.Cancel(st.ID, ""); err != nil {
		t.Fatal(err)
	}
	if n := clk.pending(); n != 0 {
		t.Fatalf("%d callbacks pending after Cancel, want the backoff stopped", n)
	}
	clk.advance(time.Nanosecond)
	final, _ := s.Status(st.ID)
	if final.State != "canceled" || final.Attempts != 1 || final.Failures != 1 {
		t.Fatalf("at the backoff's due time: %s, %d attempts, %d failures; want canceled with the one pre-cancel failure",
			final.State, final.Attempts, final.Failures)
	}
}

// TestTenantQueueQuotaExactlyExhausted: the boundary — the last queued
// slot is granted, the next submit is refused with the quota error.
func TestTenantQueueQuotaExactlyExhausted(t *testing.T) {
	s := newTestSched(t, Config{
		Platform:       testPlatform(1, 1),
		TenantQueueCap: 2,
		Registry:       registryWithHang(t),
	})
	blocker, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 5*time.Second)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1}); err != nil {
			t.Fatalf("queued submit %d: %v (quota is 2, have %d queued)", i, err, i)
		}
	}
	_, err = s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota err = %v, want ErrTenantQuota", err)
	}
	// Another tenant is unaffected: the quota is per tenant, not global.
	if _, err := s.Submit(JobSpec{Tenant: "b", Program: "sleep", Width: 1}); err != nil {
		t.Fatalf("other tenant: %v, want admission", err)
	}
}

// TestQueueFullBackpressure: the global bound, same boundary discipline.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestSched(t, Config{
		Platform: testPlatform(1, 1),
		QueueCap: 3,
		Registry: registryWithHang(t),
	})
	blocker, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 5*time.Second)
	for i := 0; i < 3; i++ {
		tenant := string(rune('a' + i))
		if _, err := s.Submit(JobSpec{Tenant: tenant, Program: "sleep", Width: 1}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(JobSpec{Tenant: "z", Program: "sleep", Width: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity err = %v, want ErrQueueFull", err)
	}
}

// TestTenantSlotsQuota: the running-slot quota holds a tenant's second
// job in the queue while its first runs, despite free capacity.
func TestTenantSlotsQuota(t *testing.T) {
	s := newTestSched(t, Config{
		Platform:    testPlatform(1, 4),
		TenantSlots: 1,
		Registry:    registryWithHang(t),
	})
	first, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning, 5*time.Second)
	second, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Submit's own dispatch pass has already declined to place it.
	if st, _ := s.Status(second.ID); st.State != "queued" {
		t.Fatalf("second job state = %s, want queued behind the slot quota", st.State)
	}
	if _, err := s.Cancel(first.ID, "free the slot"); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, second.ID, StateSucceeded, 5*time.Second)
}

// TestFairnessRoundRobin: with one slot and two tenants' queues full,
// placements alternate tenants instead of draining one queue first.
func TestFairnessRoundRobin(t *testing.T) {
	// Park the starvation guard beyond the test's horizon: six serial
	// 40ms jobs outlive the default test StarveAfter, and the guard is
	// *supposed* to override round-robin once a job has starved (that
	// path is TestBackfillThenStarvationGuard's). This test pins pure
	// alternation, which only the un-starved scheduler promises.
	s := newTestSched(t, Config{Platform: testPlatform(1, 1), StarveAfter: 10 * time.Second})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1, Args: map[string]string{"ms": "40"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 3; i++ {
		st, err := s.Submit(JobSpec{Tenant: "b", Program: "sleep", Width: 1, Args: map[string]string{"ms": "40"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	var finals []JobStatus
	for _, id := range ids {
		finals = append(finals, waitState(t, s, id, StateSucceeded, 15*time.Second))
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i].Started.Before(finals[j].Started) })
	for i := 1; i < len(finals); i++ {
		if finals[i].Tenant == finals[i-1].Tenant {
			order := make([]string, len(finals))
			for k, f := range finals {
				order[k] = f.Tenant
			}
			t.Fatalf("placement order %v ran tenant %s twice in a row; want round-robin alternation", order, finals[i].Tenant)
		}
	}
}

// TestFairnessTenantJoinsAfterFirstPlacement is the sequence that used to
// make TestFairnessRoundRobin fail one run in thirty: tenant a's first job is
// placed while a is the only tenant, and b registers before the next pass. A
// round-robin pointer wrapped to 0 at that first placement served a again
// (a a b a b b). The first job holds the one core until everything else is
// queued, so the order depends on no timing.
func TestFairnessTenantJoinsAfterFirstPlacement(t *testing.T) {
	release := make(chan struct{})
	reg := DefaultRegistry()
	err := reg.Register("held", func(spec JobSpec, env ProgramEnv) (func(c *mpi.Comm) error, error) {
		return func(c *mpi.Comm) error {
			<-release
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSched(t, Config{Platform: testPlatform(1, 1), StarveAfter: 10 * time.Second, Registry: reg})
	submit := func(tenant string) string {
		t.Helper()
		st, err := s.Submit(JobSpec{Tenant: tenant, Program: "held", Width: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	ids := []string{submit("a")}
	waitState(t, s, ids[0], StateRunning, 5*time.Second)
	for _, tenant := range []string{"a", "a", "b", "b", "b"} {
		ids = append(ids, submit(tenant))
	}
	close(release)
	var finals []JobStatus
	for _, id := range ids {
		finals = append(finals, waitState(t, s, id, StateSucceeded, 15*time.Second))
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i].Started.Before(finals[j].Started) })
	order := ""
	for _, f := range finals {
		order += f.Tenant
	}
	if order != "ababab" {
		t.Fatalf("placement order %s, want ababab", order)
	}
}

// TestBackfillThenStarvationGuard: small jobs backfill into the hole a
// wide job cannot use — until the wide job has starved past the guard, at
// which point dispatch hoards capacity and the wide job runs.
func TestBackfillThenStarvationGuard(t *testing.T) {
	s := newTestSched(t, Config{
		Platform:    testPlatform(1, 4),
		StarveAfter: 120 * time.Millisecond,
	})
	blocker, err := s.Submit(JobSpec{Tenant: "big", Program: "sleep", Width: 2, Args: map[string]string{"ms": "400"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning, 5*time.Second)
	wide, err := s.Submit(JobSpec{Tenant: "big", Program: "sleep", Width: 4, Args: map[string]string{"ms": "10"}})
	if err != nil {
		t.Fatal(err)
	}
	var smalls []string
	for i := 0; i < 8; i++ {
		st, err := s.Submit(JobSpec{Tenant: "small", Program: "sleep", Width: 1, Args: map[string]string{"ms": "80"}})
		if err != nil {
			t.Fatal(err)
		}
		smalls = append(smalls, st.ID)
	}
	wideFinal := waitState(t, s, wide.ID, StateSucceeded, 15*time.Second)
	var before, after int
	for _, id := range smalls {
		st := waitState(t, s, id, StateSucceeded, 15*time.Second)
		if st.Finished.Before(wideFinal.Started) {
			before++
		}
		if st.Started.After(wideFinal.Started) {
			after++
		}
	}
	if before == 0 {
		t.Fatal("no small job backfilled ahead of the blocked wide job")
	}
	if after == 0 {
		t.Fatal("every small job ran before the wide job: the starvation guard never engaged")
	}
}

// TestRetryWithBackoffThenSuccess: a transiently failing job climbs the
// retry ladder and lands succeeded with its failures on the record.
func TestRetryWithBackoffThenSuccess(t *testing.T) {
	s := newTestSched(t, Config{})
	st, err := s.Submit(JobSpec{
		Tenant: "a", Program: "flaky", Width: 2,
		Args: map[string]string{"fail_attempts": "2"}, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 15*time.Second)
	if final.Attempts != 3 || final.Failures != 2 {
		t.Fatalf("final = attempts %d failures %d, want 3 attempts with 2 failures", final.Attempts, final.Failures)
	}
	if len(final.History) != 3 {
		t.Fatalf("history = %v, want 3 entries", final.History)
	}
}

// TestPoisonJobQuarantined: the circuit breaker — a job that fails past
// its budget is parked terminally with the full failure history, and is
// never requeued hot.
func TestPoisonJobQuarantined(t *testing.T) {
	s, clk := newManualSched(t, Config{})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "boom", Width: 2, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRetrying, 5*time.Second)
	clk.advance(clk.untilNext(t) - time.Nanosecond)
	if got, _ := s.Status(st.ID); got.State != "retrying" || got.Attempts != 1 {
		t.Fatalf("1ns before the backoff ends: %s after %d attempts, want retrying after 1", got.State, got.Attempts)
	}
	clk.advance(time.Nanosecond)
	if got, _ := s.Status(st.ID); got.Attempts != 2 {
		t.Fatalf("at the backoff's due time: %d attempts, want the second run started", got.Attempts)
	}
	final := waitState(t, s, st.ID, StateQuarantined, 15*time.Second)
	if final.Attempts != 2 || final.Failures != 2 {
		t.Fatalf("final = attempts %d failures %d, want 2 and 2 (budget 1)", final.Attempts, final.Failures)
	}
	if !strings.Contains(final.Error, "poison job") || !strings.Contains(final.Error, "boom") {
		t.Fatalf("error = %q, want the poison verdict wrapping the cause", final.Error)
	}
	if n := clk.pending(); n != 0 {
		t.Fatalf("%d callbacks pending after quarantine, want none", n)
	}
	clk.advance(time.Hour)
	if got, _ := s.Status(st.ID); got.State != "quarantined" || got.Attempts != 2 {
		t.Fatalf("an hour after quarantine: %s after %d attempts, want it to stay quarantined after 2", got.State, got.Attempts)
	}
	if qs := s.Stats(); qs.Quarantined != 1 || qs.Lost() != 0 {
		t.Fatalf("stats = %+v, want 1 quarantined, 0 lost", qs)
	}
}

// TestKillRankFaultQuarantinesWithReport: an injected rank kill without
// recovery fails the run; with no retries allowed the job quarantines
// carrying the fault report — the postmortem names the injected kill.
func TestKillRankFaultQuarantinesWithReport(t *testing.T) {
	s := newTestSched(t, Config{})
	st, err := s.Submit(JobSpec{
		Tenant: "a", Program: "integration", Width: 4,
		Args:     map[string]string{"n": "200000"},
		KillRank: intPtr(2), KillAfter: 1, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateQuarantined, 15*time.Second)
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (MaxRetries -1 means no retries)", final.Attempts)
	}
	if len(final.Faults) == 0 {
		t.Fatalf("faults = %v, want the injected kill on the record", final.Faults)
	}
}

// TestRecoverJobSurvivesKill: a recovery-aware program with an injected
// rank kill shrinks ULFM-style and still succeeds — the fault machinery
// wired through the scheduler, for the catalog's forest fire and PageRank
// recovery forms.
func TestRecoverJobSurvivesKill(t *testing.T) {
	s := newTestSched(t, Config{CkptDir: t.TempDir()})
	for _, tc := range []struct {
		program string
		args    map[string]string
	}{
		{"forestfire-recover", map[string]string{"rows": "24", "cols": "24", "ckpt_every": "2"}},
		{"pagerank-recover", map[string]string{"ckpt_every": "2"}},
	} {
		st, err := s.Submit(JobSpec{
			Tenant: "a", Program: tc.program, Width: 4, Args: tc.args,
			Recover: true, KillRank: intPtr(1), KillAfter: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, s, st.ID, StateSucceeded, 20*time.Second)
		if final.Failures != 0 {
			t.Fatalf("%s: failures = %d, want 0: recovery absorbed the kill", tc.program, final.Failures)
		}
		logs, _ := s.Logs(st.ID)
		if !strings.Contains(string(logs), "survivors: 3/4") {
			t.Fatalf("%s: logs = %q, want the shrunk gang reported", tc.program, logs)
		}
	}
}

// TestWallClockTimeoutSpendsRetryBudget: a run that outlives its budget
// is interrupted exactly at its timeout and counts as a failure, not an
// eviction.
func TestWallClockTimeoutSpendsRetryBudget(t *testing.T) {
	s, clk := newManualSched(t, Config{Registry: registryWithHang(t)})
	st, err := s.Submit(JobSpec{
		Tenant: "a", Program: "hang", Width: 2,
		OpDeadline: time.Minute, Timeout: time.Minute, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	clk.awaitPending(t, 1) // the supervisor arms the timeout as the run starts
	clk.advance(time.Minute - time.Nanosecond)
	if cause := j.interruptCause(); cause != nil {
		t.Fatalf("1ns before the timeout: interrupted by %v", cause)
	}
	clk.advance(time.Nanosecond)
	if cause := j.interruptCause(); !errors.Is(cause, ErrJobTimeout) {
		t.Fatalf("at the timeout: interrupt cause %v, want ErrJobTimeout", cause)
	}
	final := waitState(t, s, st.ID, StateQuarantined, 10*time.Second)
	if !strings.Contains(final.Error, "wall-clock") {
		t.Fatalf("error = %q, want the timeout named", final.Error)
	}
	if st := s.Stats(); st.Requeues != 0 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want the timeout counted as a failure", st)
	}
}

// TestNodeKillEvictsRequeuesAndRecovers: chaos kills a node under a
// running gang. The gang is evicted (requeued, no retry budget spent),
// waits while the cluster is too small, and completes after the revive.
func TestNodeKillEvictsRequeuesAndRecovers(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(2, 2)})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 4, Args: map[string]string{"ms": "300"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 5*time.Second)
	if err := s.KillNode(1); err != nil {
		t.Fatal(err)
	}
	// Rigid 4-wide job on a 2-slot survivor: it must wait, not shrink.
	waitState(t, s, st.ID, StateQueued, 5*time.Second)
	mid, _ := s.Status(st.ID)
	if mid.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", mid.Requeues)
	}
	if mid.Failures != 0 {
		t.Fatalf("failures = %d: an eviction must not spend retry budget", mid.Failures)
	}
	// The degraded scheduler keeps admitting: a small job runs on the
	// surviving node meanwhile.
	small, err := s.Submit(JobSpec{Tenant: "b", Program: "sleep", Width: 1})
	if err != nil {
		t.Fatalf("submit on degraded cluster: %v", err)
	}
	waitState(t, s, small.ID, StateSucceeded, 10*time.Second)
	if err := s.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 10*time.Second)
	if final.RanWidth != 4 {
		t.Fatalf("ran width = %d, want the full 4 after revive", final.RanWidth)
	}
	if got := s.Stats(); got.Lost() != 0 {
		t.Fatalf("stats = %+v, want 0 lost", got)
	}
}

// TestElasticJobShrinksOntoDegradedCluster: same eviction, but the job
// declared MinWidth — instead of waiting for a revive it reruns shrunk to
// the surviving capacity.
func TestElasticJobShrinksOntoDegradedCluster(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(2, 2)})
	st, err := s.Submit(JobSpec{
		Tenant: "a", Program: "sleep", Width: 4, MinWidth: 2,
		Args: map[string]string{"ms": "300"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 5*time.Second)
	if err := s.KillNode(1); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 10*time.Second)
	if final.RanWidth != 2 {
		t.Fatalf("ran width = %d, want 2: the elastic job should shrink onto the survivor", final.RanWidth)
	}
	if final.Requeues != 1 || final.Failures != 0 {
		t.Fatalf("final = %+v, want one budget-free requeue", final)
	}
}

// TestHeartbeatMissDeclaresNodeDead: the detection path — a silenced node
// (no chaos kill, just missing beats) is declared dead exactly when the
// grace window ends, and its gang is evicted and rerun on the survivor.
func TestHeartbeatMissDeclaresNodeDead(t *testing.T) {
	s, clk := newManualSched(t, Config{
		Platform:       testPlatform(2, 2),
		Registry:       registryWithHang(t),
		HeartbeatGrace: 40 * time.Millisecond,
	})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 4, MinWidth: 1, OpDeadline: time.Minute, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	silenced := clk.now()
	if err := s.SilenceNode(0); err != nil {
		t.Fatal(err)
	}
	clk.advance(40*time.Millisecond - time.Nanosecond)
	if n := s.Nodes()[0]; !n.Healthy || n.Beating || !n.LastHeartbeat.Equal(silenced) {
		t.Fatalf("1ns before the grace ends: node 0 = %+v, want healthy, silent, last heard at the silence", n)
	}
	if got, _ := s.Status(st.ID); got.State != "running" || got.Attempts != 1 {
		t.Fatalf("1ns before the grace ends: %s after %d attempts, want the first run still running", got.State, got.Attempts)
	}
	clk.advance(time.Nanosecond)
	if s.Nodes()[0].Healthy {
		t.Fatal("at the end of the grace window node 0 is still healthy")
	}
	rerun := waitFor(t, s, st.ID, "a second run", func(st JobStatus) bool { return st.Attempts == 2 && st.State == "running" }, 10*time.Second)
	if rerun.Requeues != 1 || rerun.Failures != 0 {
		t.Fatalf("requeues %d, failures %d; want the eviction recorded as one budget-free requeue", rerun.Requeues, rerun.Failures)
	}
	if rerun.RanWidth != 2 || fmt.Sprint(rerun.Placement) != "[1 1]" {
		t.Fatalf("rerun at width %d on %v, want width 2 on the surviving node 1", rerun.RanWidth, rerun.Placement)
	}
}

// TestDrainNodeFinishesRunningGangs: draining is graceful — the running
// gang completes on the draining node; only new placements avoid it.
func TestDrainNodeFinishesRunningGangs(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(2, 2)})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 4, Args: map[string]string{"ms": "150"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 5*time.Second)
	if err := s.DrainNode(1); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateSucceeded, 10*time.Second)
	if final.Requeues != 0 || final.Failures != 0 {
		t.Fatalf("final = %+v, want the drained gang to finish undisturbed", final)
	}
	// New placements avoid the draining node.
	next, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	nf := waitState(t, s, next.ID, StateSucceeded, 10*time.Second)
	for _, n := range nf.Placement {
		if n == 1 {
			t.Fatalf("placement %v used the draining node", nf.Placement)
		}
	}
}

// waitArtifact polls for an atomically published artifact file: the commit
// happens after the terminal state becomes visible (deliberately outside the
// scheduler lock, and non-fatal on failure), so a reader that saw the state
// flip may still be ahead of the rename. Atomic publication means that once
// the name exists it holds the complete bytes.
func waitArtifact(t *testing.T, path string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("artifact %s never published: %v", path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestArtifactsCommittedAtomically: terminal jobs publish stdout.log and
// result.json; no temp files survive the commit.
func TestArtifactsCommittedAtomically(t *testing.T) {
	dir := t.TempDir()
	s := newTestSched(t, Config{ArtifactDir: dir})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "integration", Width: 2, Args: map[string]string{"n": "100000"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateSucceeded, 10*time.Second)

	logBytes := waitArtifact(t, filepath.Join(dir, st.ID, "stdout.log"), 5*time.Second)
	if !strings.Contains(string(logBytes), "pi ≈") {
		t.Fatalf("stdout.log = %q, want the program output", logBytes)
	}
	resBytes := waitArtifact(t, filepath.Join(dir, st.ID, "result.json"), 5*time.Second)
	var got JobStatus
	if err := json.Unmarshal(resBytes, &got); err != nil {
		t.Fatalf("result.json does not parse: %v", err)
	}
	if got.State != "succeeded" || got.ID != st.ID {
		t.Fatalf("result.json = %+v, want the succeeded status", got)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, st.ID))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("uncommitted temp file %s survived", e.Name())
		}
	}
}

// TestDrainRejectsNewWork: once draining, submits bounce with ErrDraining
// while already-admitted jobs run to completion.
func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestSched(t, Config{})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 2, Args: map[string]string{"ms": "50"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Status(st.ID); got.State != "succeeded" {
		t.Fatalf("state after drain = %s, want succeeded", got.State)
	}
	if _, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
}

// TestDrainWaitsForTheLastJob: Drain is bounded by its timeout while a job
// stays live, and a Drain already waiting returns once the last job goes
// terminal.
func TestDrainWaitsForTheLastJob(t *testing.T) {
	s := newTestSched(t, Config{Registry: registryWithHang(t)})
	st, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 2, OpDeadline: time.Minute, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(20 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "1 running") {
		t.Fatalf("drain with a hung job = %v, want a timeout naming 1 running", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(time.Minute) }()
	if _, err := s.Cancel(st.ID, "let the drain finish"); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain after the last job's cancel = %v, want nil", err)
	}
	if got, _ := s.Status(st.ID); got.State != "canceled" {
		t.Fatalf("state after drain = %s, want canceled", got.State)
	}
}

// TestCloseReapsEverything: Close cancels queued work, revokes running
// gangs, and leaves every job terminal with nothing lost.
func TestCloseReapsEverything(t *testing.T) {
	s := newTestSched(t, Config{Platform: testPlatform(1, 2), Registry: registryWithHang(t)})
	hang, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 2, OpDeadline: time.Minute, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "a", Program: "sleep", Width: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := s.Status(hang.ID); st.State != "running" {
		t.Fatalf("hang job state = %s before Close, want running", st.State)
	}
	s.Close()
	st := s.Stats()
	if st.Queued+st.Running+st.Retrying != 0 {
		t.Fatalf("stats after close = %+v, want everything terminal", st)
	}
	if st.Lost() != 0 {
		t.Fatalf("lost = %d after close, want 0", st.Lost())
	}
}

// TestCloseStopsEveryTimer: each timer belongs to what it acts on — a
// retrying job's backoff, a silenced node's grace, a running job's timeout
// — and Close stops them all, so nothing changes once it has returned. New
// starts no goroutine for Close to join.
func TestCloseStopsEveryTimer(t *testing.T) {
	t.Run("New starts no goroutine", func(t *testing.T) {
		// Goroutines left by earlier tests may still be exiting, so the
		// count may fall; it must not rise.
		before := runtime.NumGoroutine()
		s, err := New(Config{Platform: testPlatform(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("New took the goroutine count from %d to %d", before, got)
		}
		s.Close()
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("New then Close took the goroutine count from %d to %d", before, got)
		}
	})
	t.Run("Close", func(t *testing.T) {
		s, clk := newManualSched(t, Config{Platform: testPlatform(2, 2), Registry: registryWithHang(t)})
		if _, err := s.Submit(JobSpec{ID: "boom", Tenant: "a", Program: "boom", Width: 1, MaxRetries: 5}); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "boom", StateRetrying, 5*time.Second)
		if _, err := s.Submit(JobSpec{ID: "hang", Tenant: "a", Program: "hang", Width: 2, OpDeadline: time.Minute, Timeout: time.Hour}); err != nil {
			t.Fatal(err)
		}
		if err := s.SilenceNode(1); err != nil {
			t.Fatal(err)
		}
		clk.awaitPending(t, 3) // boom's backoff, node 1's grace, hang's timeout
		s.Close()
		if n := clk.pending(); n != 0 {
			t.Fatalf("%d callbacks pending after Close, want none", n)
		}
		jobs, nodes := s.List("", ""), nodeStates(s)
		clk.advance(2 * time.Hour)
		if got := s.List("", ""); !reflect.DeepEqual(got, jobs) {
			t.Errorf("jobs after advancing past every due time:\n%+v\nwant, as Close left them:\n%+v", got, jobs)
		}
		if got := nodeStates(s); got != nodes {
			t.Errorf("nodes after advancing past every due time: %s, want %s", got, nodes)
		}
	})
	t.Run("ReviveNode before the grace", func(t *testing.T) {
		s, clk := newManualSched(t, Config{Platform: testPlatform(2, 2), HeartbeatGrace: time.Second})
		if err := s.SilenceNode(0); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second - time.Nanosecond)
		if err := s.ReviveNode(0); err != nil {
			t.Fatal(err)
		}
		if n := clk.pending(); n != 0 {
			t.Fatalf("%d callbacks pending after the revive, want the grace stopped", n)
		}
		for _, d := range []time.Duration{time.Nanosecond, time.Hour} {
			clk.advance(d)
			if n := s.Nodes()[0]; !n.Healthy || !n.Beating {
				t.Fatalf("revived node 0 = %+v, want healthy and beating", n)
			}
		}
	})
	t.Run("KillNode on a silenced node", func(t *testing.T) {
		var mu sync.Mutex
		deaths := 0
		s, clk := newManualSched(t, Config{
			Platform: testPlatform(2, 2), Registry: registryWithHang(t), HeartbeatGrace: time.Second,
			Logf: func(format string, args ...any) {
				if strings.Contains(fmt.Sprintf(format, args...), "missed heartbeats") {
					mu.Lock()
					deaths++
					mu.Unlock()
				}
			},
		})
		st, err := s.Submit(JobSpec{Tenant: "a", Program: "hang", Width: 4, MinWidth: 1, OpDeadline: time.Minute, Timeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		silenced := clk.now()
		if err := s.SilenceNode(0); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second / 2)
		if err := s.KillNode(0); err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, st.ID, "a second run", func(st JobStatus) bool { return st.Attempts == 2 && st.State == "running" }, 10*time.Second)
		clk.awaitPending(t, 1) // the rerun's timeout: the kill stopped the grace
		clk.advance(2 * time.Second)
		n := s.Nodes()[0]
		if n.Healthy || !n.LastHeartbeat.Equal(silenced) {
			t.Fatalf("node 0 = %+v, want dead, last heard at the silence", n)
		}
		got, _ := s.Status(st.ID)
		mu.Lock()
		defer mu.Unlock()
		if got.Requeues != 1 || got.Attempts != 2 || s.Stats().Requeues != 1 || deaths != 0 {
			t.Fatalf("requeues %d, attempts %d, grace deaths %d past the grace; want the kill's one eviction only",
				got.Requeues, got.Attempts, deaths)
		}
	})
}

// nodeStates is the part of Nodes that only events change: a beating
// node's LastHeartbeat reads the clock.
func nodeStates(s *Scheduler) string {
	out := ""
	for _, n := range s.Nodes() {
		out += fmt.Sprintf("[%d healthy=%t beating=%t used=%d]", n.ID, n.Healthy, n.Beating, n.Used)
	}
	return out
}

// TestChaosLoadZeroLostJobs is the package-scale chaos drill: a mixed
// multi-tenant load, a node killed and revived mid-flight, and at the end
// every admitted job is terminal — succeeded, canceled, or
// quarantined-with-report — with zero lost and the daemon still admitting.
// It runs once against the scheduler directly and once through the HTTP
// handler, the four tenants posting at once against a queue of four: the 429
// storm that follows must cost nothing but retries — every rejection carries
// Retry-After, and every job is admitted on a later attempt.
func TestChaosLoadZeroLostJobs(t *testing.T) {
	t.Run("in process", func(t *testing.T) {
		s := newTestSched(t, Config{Platform: testPlatform(2, 4), QueueCap: 500})
		chaosLoad(t, s, 1, s.Submit)
	})
	t.Run("over HTTP under a 429 storm", func(t *testing.T) {
		s, srv := newTestServer(t, Config{Platform: testPlatform(2, 4), QueueCap: 4})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		var rejected atomic.Int64
		chaosLoad(t, s, 4, func(spec JobSpec) (JobStatus, error) {
			body, err := json.Marshal(spec)
			if err != nil {
				return JobStatus{}, err
			}
			for {
				req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/api/v1/jobs", bytes.NewReader(body))
				if err != nil {
					return JobStatus{}, err
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return JobStatus{}, err
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusCreated:
					return st, err
				case resp.StatusCode != http.StatusTooManyRequests:
					return st, fmt.Errorf("POST = %d, want 201 or 429", resp.StatusCode)
				case resp.Header.Get("Retry-After") == "":
					return st, errors.New("429 without a Retry-After header")
				}
				rejected.Add(1)
				runtime.Gosched()
			}
		})
		if rejected.Load() == 0 {
			t.Error("no submission was rejected: the queue is not small enough to test the storm")
		}
	})
}

// chaosLoad puts the chaos mix through submit — 48 gangs from four tenants,
// every tenth a poison job and every tenth a flaky one, lane l of lanes
// submitting jobs l, l+lanes, ... in order — kills node 1 once job 24 is in,
// revives it after the last, drains, and checks the three invariants: nothing
// lost, nothing non-terminal, and the poison jobs and only they quarantined.
func chaosLoad(t *testing.T, s *Scheduler, lanes int, submit func(JobSpec) (JobStatus, error)) {
	const jobs = 48
	tenants := []string{"t0", "t1", "t2", "t3"}
	var mu sync.Mutex
	ids := make(map[string][]string) // by program
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < jobs; i += lanes {
				spec := JobSpec{
					Tenant:  tenants[i%len(tenants)],
					Program: "sleep",
					Width:   1 + i%4,
					Args:    map[string]string{"ms": "5"},
				}
				switch {
				case i%10 == 9:
					spec.Program = "boom"
					spec.MaxRetries = -1
				case i%10 == 4:
					spec.Program = "flaky"
					spec.Args = map[string]string{"fail_attempts": "1"}
				}
				st, err := submit(spec)
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				mu.Lock()
				ids[spec.Program] = append(ids[spec.Program], st.ID)
				mu.Unlock()
				if i == jobs/2 {
					if err := s.KillNode(1); err != nil {
						t.Error(err)
					}
				}
			}
		}(lane)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	time.Sleep(100 * time.Millisecond)
	if err := s.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Lost() != 0 {
		t.Fatalf("stats = %+v: %d jobs lost", st, st.Lost())
	}
	if st.Admitted != jobs {
		t.Fatalf("admitted = %d, want %d", st.Admitted, jobs)
	}
	if st.Quarantined != len(ids["boom"]) {
		t.Errorf("quarantined = %d, want the %d poison jobs", st.Quarantined, len(ids["boom"]))
	}
	for _, program := range []string{"sleep", "flaky"} { // flaky: retried into success
		for _, id := range ids[program] {
			if got, _ := s.Status(id); got.State != "succeeded" {
				t.Errorf("%s job %s = %s (%q), want succeeded", program, id, got.State, got.Error)
			}
		}
	}
	for _, id := range ids["boom"] {
		got, _ := s.Status(id)
		if got.State != "quarantined" {
			t.Errorf("boom job %s = %s, want quarantined", id, got.State)
		}
		if len(got.History) == 0 {
			t.Errorf("boom job %s has no failure history", id)
		}
	}
}
