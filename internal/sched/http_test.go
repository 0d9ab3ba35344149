package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := newTestSched(t, cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// TestHTTPSubmitStatusLogs: the whole client round trip — submit, poll to
// completion, fetch logs.
func TestHTTPSubmitStatusLogs(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	var st JobStatus
	resp := doJSON(t, "POST", srv.URL+"/api/v1/jobs",
		JobSpec{Tenant: "alice", Program: "integration", Width: 2, Args: map[string]string{"n": "100000"}}, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != "succeeded" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if r := doJSON(t, "GET", srv.URL+"/api/v1/jobs/"+st.ID, nil, &st); r.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", r.StatusCode)
		}
	}
	logResp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID + "/logs")
	if err != nil {
		t.Fatal(err)
	}
	defer logResp.Body.Close()
	logs, _ := io.ReadAll(logResp.Body)
	if !strings.Contains(string(logs), "pi ≈") {
		t.Fatalf("logs = %q, want program output", logs)
	}
}

// TestHTTPAdmissionErrors: each admission failure surfaces as its
// documented status code.
func TestHTTPAdmissionErrors(t *testing.T) {
	s, srv := newTestServer(t, Config{
		Platform: testPlatform(1, 1),
		QueueCap: 1,
		Registry: registryWithHang(t),
	})
	// 400: zero-width gang.
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/jobs", JobSpec{Tenant: "a", Program: "sleep", Width: 0}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero width = %d, want 400", resp.StatusCode)
	}
	// 400: an exemplar arg that is not an integer, named in the error.
	var bad struct{ Error string }
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/jobs", JobSpec{Tenant: "a", Program: "integration", Width: 1, Args: map[string]string{"n": "1e6"}}, &bad); resp.StatusCode != http.StatusBadRequest || !strings.Contains(bad.Error, `n="1e6"`) {
		t.Fatalf("bad exemplar arg = %d %q, want 400 naming n", resp.StatusCode, bad.Error)
	}
	// 400: malformed body.
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", resp.StatusCode)
	}
	// Occupy the one slot, then fill the one-deep queue.
	var blocker JobStatus
	doJSON(t, "POST", srv.URL+"/api/v1/jobs",
		JobSpec{ID: "blocker", Tenant: "a", Program: "hang", Width: 1, OpDeadline: time.Minute}, &blocker)
	waitState(t, s, "blocker", StateRunning, 5*time.Second)
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/jobs", JobSpec{Tenant: "a", Program: "sleep", Width: 1}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("queued submit = %d, want 201", resp.StatusCode)
	}
	// 409: duplicate ID.
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/jobs", JobSpec{ID: "blocker", Tenant: "a", Program: "sleep", Width: 1}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate = %d, want 409", resp.StatusCode)
	}
	// 429 + Retry-After: the queue is full.
	full := doJSON(t, "POST", srv.URL+"/api/v1/jobs", JobSpec{Tenant: "a", Program: "sleep", Width: 1}, nil)
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity = %d, want 429", full.StatusCode)
	}
	if full.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// 404: unknown job.
	if resp := doJSON(t, "GET", srv.URL+"/api/v1/jobs/no-such", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPCancelAndTerminalConflict: DELETE cancels; canceling a terminal
// job is a 409 carrying the error.
func TestHTTPCancelAndTerminalConflict(t *testing.T) {
	s, srv := newTestServer(t, Config{Registry: registryWithHang(t)})
	var st JobStatus
	doJSON(t, "POST", srv.URL+"/api/v1/jobs",
		JobSpec{Tenant: "a", Program: "hang", Width: 2, OpDeadline: time.Minute, Timeout: time.Minute}, &st)
	waitState(t, s, st.ID, StateRunning, 5*time.Second)
	var canceled JobStatus
	if resp := doJSON(t, "DELETE", srv.URL+"/api/v1/jobs/"+st.ID+"?reason=test", nil, &canceled); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", resp.StatusCode)
	}
	waitState(t, s, st.ID, StateCanceled, 5*time.Second)
	if resp := doJSON(t, "DELETE", srv.URL+"/api/v1/jobs/"+st.ID, nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of terminal job = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPNodesAndChaos: the cluster view and the chaos endpoints.
func TestHTTPNodesAndChaos(t *testing.T) {
	_, srv := newTestServer(t, Config{Platform: testPlatform(2, 2)})
	var nodes []NodeStatus
	doJSON(t, "GET", srv.URL+"/api/v1/nodes", nil, &nodes)
	if len(nodes) != 2 || !nodes[1].Healthy {
		t.Fatalf("nodes = %+v, want 2 healthy nodes", nodes)
	}
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/nodes/1/kill", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill = %d, want 200", resp.StatusCode)
	}
	doJSON(t, "GET", srv.URL+"/api/v1/nodes", nil, &nodes)
	if nodes[1].Healthy {
		t.Fatal("node 1 still healthy after the chaos kill")
	}
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/nodes/9/kill", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("kill of unknown node = %d, want 404", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/api/v1/nodes/1/revive", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("revive = %d, want 200", resp.StatusCode)
	}
	var stats Stats
	doJSON(t, "GET", srv.URL+"/api/v1/stats", nil, &stats)
	if stats.HealthyNodes != 2 {
		t.Fatalf("stats = %+v, want both nodes healthy after revive", stats)
	}
}

// TestHTTPListAndPrograms: filtered listings and the program catalog.
func TestHTTPListAndPrograms(t *testing.T) {
	s, srv := newTestServer(t, Config{})
	for i, tenant := range []string{"a", "a", "b"} {
		var st JobStatus
		doJSON(t, "POST", srv.URL+"/api/v1/jobs",
			JobSpec{ID: fmt.Sprintf("list-%d", i), Tenant: tenant, Program: "sleep", Width: 1, Args: map[string]string{"ms": "1"}}, &st)
	}
	for i := 0; i < 3; i++ {
		waitState(t, s, fmt.Sprintf("list-%d", i), StateSucceeded, 10*time.Second)
	}
	var jobs []JobStatus
	doJSON(t, "GET", srv.URL+"/api/v1/jobs?tenant=a", nil, &jobs)
	if len(jobs) != 2 {
		t.Fatalf("tenant filter returned %d jobs, want 2", len(jobs))
	}
	doJSON(t, "GET", srv.URL+"/api/v1/jobs?state=succeeded", nil, &jobs)
	if len(jobs) != 3 {
		t.Fatalf("state filter returned %d jobs, want 3", len(jobs))
	}
	var programs []string
	doJSON(t, "GET", srv.URL+"/api/v1/programs", nil, &programs)
	for _, want := range []string{"forestfire-recover", "pagerank", "pagerank-recover"} {
		found := false
		for _, p := range programs {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("programs = %v, want the default catalog with %s", programs, want)
		}
	}
	if resp := doJSON(t, "GET", srv.URL+"/api/v1/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// FuzzSubmitSpec: arbitrary bodies through NewHandler's POST /api/v1/jobs,
// each against a fresh scheduler on the manual clock with every node killed
// first, so an admitted job queues and never runs; the scheduler is closed
// after the request. Only 201, 400 or 429 comes back; a 400 admits nothing
// and names its cause after ErrBadSpec's text; a 201 admits one job, which
// asks for no more ranks than the cluster's cores (an elastic one may shrink
// to them). The seeds are TestBadSpecsRejected's rows and one good spec.
func FuzzSubmitSpec(f *testing.F) {
	const cores = 4 // testPlatform(2, 2)
	for _, tc := range badSpecs {
		body, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"tenant":"a","program":"integration","width":2,"args":{"n":"1000"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, _ := newManualSched(t, Config{Platform: testPlatform(2, 2)})
		for id := range 2 {
			if err := s.KillNode(id); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		admitted := s.Stats().Admitted
		s.Close()
		switch rec.Code {
		case http.StatusCreated:
			var spec JobSpec // what the handler decoded: the body's first value
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
				t.Fatalf("201 for a body the handler could not decode: %v", err)
			}
			if admitted != 1 {
				t.Fatalf("201 with %d jobs admitted, want 1", admitted)
			}
			if spec.Width > cores && (spec.MinWidth < 1 || spec.MinWidth > cores) {
				t.Fatalf("admitted width %d, min_width %d on %d cores", spec.Width, spec.MinWidth, cores)
			}
		case http.StatusBadRequest:
			var reply struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("400 body %q: %v", rec.Body, err)
			}
			if cause, ok := strings.CutPrefix(reply.Error, ErrBadSpec.Error()+": "); !ok || cause == "" {
				t.Fatalf("400 error %q names no cause after %q", reply.Error, ErrBadSpec)
			}
			if admitted != 0 {
				t.Fatalf("400 with %d jobs admitted", admitted)
			}
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body, body)
		}
	})
}
