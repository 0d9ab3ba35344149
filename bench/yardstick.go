package main

// Yardsticks: what the platform charges for the same shape of work with none
// of the product in the way. Each op is scored as a ratio to its yardstick,
// measured in the same 100 ms window, so host noise cancels and a product
// change cannot move the denominator. This file must import nothing from
// internal/ (TestYardsticksAreStdlibOnly pins it) and, once baselines exist,
// must not change: every stored ratio is in these units.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// chanEcho is the yardstick for the local ping-pong: round trips over two
// unbuffered channels, one goroutine wake-up each way.
type chanEcho struct {
	ping, pong chan float64
	done       chan struct{}
}

func newChanEcho() *chanEcho {
	e := &chanEcho{ping: make(chan float64), pong: make(chan float64), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		for v := range e.ping {
			e.pong <- v
		}
	}()
	return e
}

func (e *chanEcho) roundTrips(n int) error {
	for i := 0; i < n; i++ {
		e.ping <- float64(i)
		if v := <-e.pong; v != float64(i) {
			return errors.New("channel yardstick: echo returned the wrong value")
		}
	}
	return nil
}

func (e *chanEcho) close() {
	close(e.ping)
	<-e.done
}

// relayEcho is the yardstick for the TCP workloads: client A and echo peer B
// each hold one loopback connection to a relay that copies bytes between
// them, so a round trip crosses the same four socket hops as rank 0 → hub →
// rank 1 → hub → rank 0, with no framing, sequence numbers or checksums.
type relayEcho struct {
	ln  net.Listener
	a   net.Conn
	buf []byte
	wg  sync.WaitGroup
}

// newRelayEcho builds the relay with B echoing fixed-size messages of size
// bytes (B reads a whole message before it writes it back, as a rank does).
func newRelayEcho(size int) (*relayEcho, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opened := []io.Closer{ln}
	// link dials the relay and returns both ends of the new connection.
	link := func() (dialed, accepted net.Conn, err error) {
		if dialed, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return nil, nil, err
		}
		opened = append(opened, dialed)
		if accepted, err = ln.Accept(); err != nil {
			return nil, nil, err
		}
		opened = append(opened, accepted)
		return dialed, accepted, nil
	}
	a, ra, err := link()
	var b, rb net.Conn
	if err == nil {
		b, rb, err = link()
	}
	if err != nil {
		for _, c := range opened {
			c.Close()
		}
		return nil, err
	}
	r := &relayEcho{ln: ln, a: a, buf: make([]byte, size)}
	// Each goroutine below ends when close hangs up A: the error that ends
	// it is the closed socket, and a failure before that surfaces in echoes.
	// The relay copies through a buffer of its own, as a hub in user space
	// must; io.Copy would splice in the kernel and touch no byte.
	pipe := func(dst, src net.Conn) {
		defer r.wg.Done()
		defer dst.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	r.wg.Add(3)
	go pipe(rb, ra)
	go pipe(ra, rb)
	go func() { // B: the echo peer
		defer r.wg.Done()
		defer b.Close()
		msg := make([]byte, size)
		for {
			if _, err := io.ReadFull(b, msg); err != nil {
				return
			}
			if _, err := b.Write(msg); err != nil {
				return
			}
		}
	}()
	return r, nil
}

// echoes sends n messages stamped i..i+n-1 and checks each comes back.
func (r *relayEcho) echoes(n int) error {
	last := len(r.buf) - 1
	for i := 0; i < n; i++ {
		r.buf[0], r.buf[last] = byte(i), byte(i>>8)
		if _, err := r.a.Write(r.buf); err != nil {
			return fmt.Errorf("relay yardstick: %w", err)
		}
		if _, err := io.ReadFull(r.a, r.buf); err != nil {
			return fmt.Errorf("relay yardstick: %w", err)
		}
		if r.buf[0] != byte(i) || r.buf[last] != byte(i>>8) {
			return errors.New("relay yardstick: echo returned the wrong bytes")
		}
	}
	return nil
}

func (r *relayEcho) close() {
	r.a.Close()
	r.ln.Close()
	r.wg.Wait()
}

// copyTwice is the yardstick for the shared-memory stream: a 1 MiB message
// staged once and drained once is two copies at memory bandwidth.
type copyTwice struct{ src, stage, dst []byte }

func newCopyTwice(size int) *copyTwice {
	c := &copyTwice{src: make([]byte, size), stage: make([]byte, size), dst: make([]byte, size)}
	for i := range c.src {
		c.src[i] = byte(i)
	}
	return c
}

func (c *copyTwice) run() {
	copy(c.stage, c.src)
	copy(c.dst, c.stage)
}

// csr is a directed graph in compressed sparse row form, bench-owned so the
// oracle below shares no code with the exemplar it judges.
type csr struct {
	n   int
	off []int
	dst []int32
}

// powerIteration is the frozen sequential PageRank: damped power iteration
// with the dangling mass spread uniformly, iters rounds. It is both the
// yardstick (time to solution, one thread) and the oracle (its result is
// what the distributed run must equal to 1e-12). pr and contrib are scratch
// of length n; the result is in pr.
func powerIteration(g *csr, damping float64, iters int, pr, contrib []float64) {
	n := g.n
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range contrib {
			contrib[v] = 0
		}
		dangling := 0.0
		for u := 0; u < n; u++ {
			d := g.off[u+1] - g.off[u]
			if d == 0 {
				dangling += pr[u]
				continue
			}
			w := pr[u] / float64(d)
			for _, v := range g.dst[g.off[u]:g.off[u+1]] {
				contrib[v] += w
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range pr {
			pr[v] = base + damping*contrib[v]
		}
	}
}

// quarterCircleSum is the yardstick for the shared-memory exemplars: the
// integrand they all reduce to, 4/(1+x²), summed on one thread.
func quarterCircleSum(n int) float64 {
	h := 1 / float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) * h
		sum += 4 / (1 + x*x)
	}
	return sum * h
}

// httpFloor is the yardstick for the scheduler: GETs to a handler that does
// nothing, over one kept-alive loopback connection. A job costs one POST
// and at least one GET per client; four GETs is the matching wire work for
// the two clients of one op.
type httpFloor struct {
	srv    *http.Server
	client *http.Client
	url    string
	done   chan struct{}
}

func newHTTPFloor() (*httpFloor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/floor", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"state":"succeeded"}`)
	})
	f := &httpFloor{
		srv:    &http.Server{Handler: mux},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:    "http://" + ln.Addr().String() + "/floor",
		done:   make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln) // returns ErrServerClosed from close below
	}()
	return f, nil
}

func (f *httpFloor) gets(n int) error {
	for i := 0; i < n; i++ {
		resp, err := f.client.Get(f.url)
		if err != nil {
			return fmt.Errorf("http yardstick: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("http yardstick: status %d, %v", resp.StatusCode, err)
		}
	}
	return nil
}

// spin busy-waits for d: the job's own payload, which no scheduler can
// shave. It runs ahead of the GETs so that they start as cold as a job's
// requests do; back-to-back GETs alone are a hot path that follows the
// host's speed far more closely than a job's turnaround does, and made the
// ratio noisier than the raw time.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

func (f *httpFloor) close() {
	f.client.CloseIdleConnections()
	f.srv.Close()
	<-f.done
}
