package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/sched"
)

const (
	schedClients = 2
	schedWidth   = 2
	pollPause    = 200 * time.Microsecond
	spinFor      = 200 * time.Microsecond // each rank of a job computes this long
)

// schedClient is one closed-loop user of the daemon: it submits a job, polls
// its status until it is terminal, and only then submits the next.
type schedClient struct {
	http *http.Client
	base string
	spec []byte
}

func newSchedClient(base string, i int) (*schedClient, error) {
	spec, err := json.Marshal(sched.JobSpec{
		Tenant:  fmt.Sprintf("client-%d", i),
		Program: "spin",
		Args:    map[string]string{"us": fmt.Sprint(spinFor.Microseconds())},
		Width:   schedWidth,
	})
	if err != nil {
		return nil, err
	}
	return &schedClient{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: base,
		spec: spec,
	}, nil
}

// call makes one request and decodes a JobStatus from a reply with the
// wanted status code. Any other code is returned, with a nil error, for the
// caller to judge.
func (c *schedClient) call(method, url string, body []byte, want int, st *sched.JobStatus) (code int, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == want {
		err = json.NewDecoder(resp.Body).Decode(st)
	}
	// Drain so the connection is reused.
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// job is one turnaround: POST, then GET until terminal.
func (c *schedClient) job(o *opSpan) error {
	var st sched.JobStatus
	for {
		t := o.now()
		code, err := c.call(http.MethodPost, c.base+"/api/v1/jobs", c.spec, http.StatusCreated, &st)
		if err != nil {
			return err
		}
		if code == http.StatusCreated {
			o.child("sched.submit", t)
			break
		}
		if code != http.StatusTooManyRequests {
			return fmt.Errorf("sched: submit answered %d", code)
		}
		o.add("sched.rejected", 1)
		time.Sleep(time.Millisecond) // backpressure: ask again shortly
	}
	o.add("sched.submits", 1)
	url := c.base + "/api/v1/jobs/" + st.ID
	for polls := 1.0; ; polls++ {
		t := o.now()
		code, err := c.call(http.MethodGet, url, nil, http.StatusOK, &st)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("sched: status of %s answered %d", st.ID, code)
		}
		seen := o.child("sched.status", t)
		if st.State == sched.StateSucceeded.String() {
			o.add("sched.polls", polls)
			o.interval("sched.queue", st.Submitted, st.Started)
			o.interval("sched.run", st.Started, st.Finished)
			o.interval("sched.notice", st.Finished, seen)
			break
		}
		if st.State == sched.StateCanceled.String() || st.State == sched.StateQuarantined.String() {
			return wrongf("sched: job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollPause)
	}
	if st.RanWidth != schedWidth {
		return wrongf("sched: job %s ran %d wide, want %d", st.ID, st.RanWidth, schedWidth)
	}
	return nil
}

func buildSched(seed int64) (*workload, error) {
	// last holds the counters of the most recent session's daemon, read
	// after its last job and before it shut down.
	var last sched.Stats
	open := func(body func(*session) error) error {
		s, err := sched.New(sched.Config{Seed: seed})
		if err != nil {
			return err
		}
		defer s.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: sched.NewHandler(s)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln) // returns ErrServerClosed from the Close below
		}()
		defer func() {
			srv.Close()
			<-served
		}()
		var clients [schedClients]*schedClient
		for i := range clients {
			if clients[i], err = newSchedClient("http://"+ln.Addr().String(), i); err != nil {
				return err
			}
			defer clients[i].http.CloseIdleConnections()
		}
		jobs := 0
		err = body(&session{op: func(tr *recorder) error {
			o := tr.begin("sched-closed-c2")
			var wg sync.WaitGroup
			var errs [schedClients]error
			for i := 1; i < schedClients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = clients[i].job(o)
				}(i)
			}
			errs[0] = clients[0].job(o)
			wg.Wait()
			o.done()
			jobs += schedClients
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}})
		last = s.Stats()
		if err == nil && (last.Lost() != 0 || last.Succeeded != jobs) {
			err = wrongf("sched: %d jobs submitted, %d succeeded, %d lost", jobs, last.Succeeded, last.Lost())
		}
		return err
	}
	return &workload{
		newYard: func() (func() error, func(), error) {
			floor, err := newHTTPFloor()
			if err != nil {
				return nil, nil, err
			}
			return func() error { spin(spinFor); return floor.gets(2 * schedClients) }, floor.close, nil
		},
		open: open,
		probe: func(ps *passStats, budget time.Duration) (map[string]float64, error) {
			r := ps.rec
			jobs := r.counted("sched.submits")
			return map[string]float64{
				"sched.polls_per_job":     r.counted("sched.polls") / jobs,
				"sched.rejected_429_frac": r.counted("sched.rejected") / (jobs + r.counted("sched.rejected")),
				"sched.requeues":          float64(last.Requeues),
				"sched.failures":          float64(last.Failures),
			}, nil
		},
	}, nil
}
