package mpi

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHubFormationTimeout: a world that never assembles fails with
// ErrFormationTimeout listing the ranks that never joined, instead of the
// hub waiting forever.
func TestHubFormationTimeout(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 3, HubFormationTimeout(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	werr := hub.Wait()
	if !errors.Is(werr, ErrFormationTimeout) {
		t.Fatalf("hub.Wait = %v, want ErrFormationTimeout", werr)
	}
	if !strings.Contains(werr.Error(), "[0 1 2]") {
		t.Fatalf("hub.Wait = %v, want all three missing ranks listed", werr)
	}
}

// TestHubFormationTimeoutNamesMissingRanks: ranks that did join are not
// blamed, and the waiting joiner is released with the failure rather than
// left blocked on the start signal.
func TestHubFormationTimeoutNamesMissingRanks(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 3, HubFormationTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	joined := make(chan error, 1)
	go func() {
		joined <- JoinTCP(hub.Addr(), 0, 3, func(c *Comm) error { return nil })
	}()

	// Same-package test: confirm rank 0 was admitted well inside the
	// formation budget, so the timeout can only blame ranks 1 and 2.
	admitted := false
	for i := 0; i < 100 && !admitted; i++ {
		hub.mu.Lock()
		_, admitted = hub.conns[0]
		hub.mu.Unlock()
		if !admitted {
			time.Sleep(time.Millisecond)
		}
	}
	if !admitted {
		t.Fatal("rank 0 not admitted within 100ms; cannot exercise the partial-formation case")
	}

	werr := hub.Wait()
	if !errors.Is(werr, ErrFormationTimeout) {
		t.Fatalf("hub.Wait = %v, want ErrFormationTimeout", werr)
	}
	if strings.Contains(werr.Error(), "[0") || !strings.Contains(werr.Error(), "1 2]") {
		t.Fatalf("hub.Wait = %v, want exactly ranks 1 and 2 reported missing", werr)
	}
	select {
	case jerr := <-joined:
		if jerr == nil {
			t.Fatal("joined worker reported success in a world that never formed")
		}
		if !errors.Is(jerr, ErrWorldAborted) && !strings.Contains(jerr.Error(), "formation") {
			t.Fatalf("joined worker err = %v, want the formation failure", jerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined worker still blocked after formation timeout")
	}
}

// TestRunTCPFormationTimeoutOption: WithHubOptions threads hub hardening
// through RunTCP. All ranks join instantly here, so the tight formation
// budget must not fire.
func TestRunTCPFormationTimeoutOption(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		return c.Barrier()
	}, WithHubOptions(HubFormationTimeout(5*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryBounded: dialing an address nobody will ever listen on fails
// once the retry budget (dialRetry, 3 s) is spent — not before, promptly
// after, and with the budget named.
func TestDialRetryBounded(t *testing.T) {
	// Reserve a port, then close it so the dial target is definitely dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	jerr := JoinTCP(addr, 0, 1, func(c *Comm) error { return nil })
	elapsed := time.Since(start)
	if jerr == nil {
		t.Fatal("JoinTCP succeeded against a dead address")
	}
	if !strings.Contains(jerr.Error(), "retried for 3s") {
		t.Fatalf("err = %v, want the retry budget reported", jerr)
	}
	if elapsed < dialRetry || elapsed >= 5*time.Second {
		t.Fatalf("bounded retry took %v, want [%v, 5s)", elapsed, dialRetry)
	}
}

// TestDialRetryRidesOutLateHub: the launch race the retry exists for —
// workers started before their hub — resolves itself once the hub comes up.
func TestDialRetryRidesOutLateHub(t *testing.T) {
	// Reserve an address for the hub, release it, start the worker first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	joined := make(chan error, 1)
	go func() {
		joined <- JoinTCP(addr, 0, 1, func(c *Comm) error { return nil })
	}()

	time.Sleep(50 * time.Millisecond) // worker's first dials fail meanwhile
	hub, err := StartHub(addr, 1)
	if err != nil {
		t.Fatalf("hub could not claim the reserved address: %v", err)
	}
	defer hub.Close()

	select {
	case jerr := <-joined:
		if jerr != nil {
			t.Fatalf("worker failed despite the hub arriving within the budget: %v", jerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never joined the late hub")
	}
	if werr := hub.Wait(); werr != nil {
		t.Fatal(werr)
	}
}

// TestHubHeartbeatAnswersKeepWorldAlive: JoinTCP's read loop answers pings
// from outside user code, so a rank busy in a long compute still heartbeats
// and a healthy world is never revoked.
func TestHubHeartbeatAnswersKeepWorldAlive(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2, HubHeartbeat(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			errs[rank] = JoinTCP(hub.Addr(), rank, 2, func(c *Comm) error {
				time.Sleep(120 * time.Millisecond) // several heartbeat intervals
				return c.Barrier()
			})
		}(rank)
	}
	wg.Wait()
	for rank, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", rank, e)
		}
	}
	if werr := hub.Wait(); werr != nil {
		t.Fatalf("healthy heartbeating world revoked: %v", werr)
	}
}

// TestHubHeartbeatDetectsSilentWorker: a worker that joins and then goes
// silent — no pongs, no traffic, connection still open — is detected and
// the job fails with the unresponsive rank named.
func TestHubHeartbeatDetectsSilentWorker(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 1, HubHeartbeat(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	_, start := dialRank(t, hub.Addr(), 0)
	if start.Tag != tagStart {
		t.Fatalf("first frame tag = %d, want start", start.Tag)
	}
	// Never answer the pings.
	werr := hub.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "unresponsive") {
		t.Fatalf("hub.Wait = %v, want the silent worker reported unresponsive", werr)
	}
	if !strings.Contains(werr.Error(), "[0]") {
		t.Fatalf("hub.Wait = %v, want rank 0 named", werr)
	}
}

// TestHubStartBroadcastHoldsRoutedFrames: the hub writes the start signal to
// one worker at a time, and a worker that has its signal sends at once. The
// seams pause the broadcast after the first start frame that goes to a worker
// whose route loop is running (the last joiner's starts only after the
// broadcast) until the hub has read a message from it. Every rank opens with
// a send to every peer, and at np=3 at least one of them is still unstarted, so
// that message must be held back until the broadcast is over. A hub that
// relays it makes the peer fail with "unexpected frame before start signal",
// which fails the world and releases the pause through hub.finished.
func TestHubStartBroadcastHoldsRoutedFrames(t *testing.T) {
	const np = 3
	held := make(chan struct{})
	var heldOnce sync.Once
	paused := false // touched by the broadcasting goroutine only
	seams := func(o *hubOptions) {
		o.startWritten = func(h *Hub, routing bool) {
			if routing && !paused {
				paused = true
				select {
				case <-held:
				case <-h.finished:
				}
			}
		}
		o.startHeld = func() { heldOnce.Do(func() { close(held) }) }
	}
	err := RunTCP(np, func(c *Comm) error {
		for r := 0; r < np; r++ {
			if r != c.Rank() {
				if err := c.Send(r, 3, 10*c.Rank()+r); err != nil {
					return err
				}
			}
		}
		for r := 0; r < np; r++ {
			if r == c.Rank() {
				continue
			}
			var v int
			if _, err := c.Recv(r, 3, &v); err != nil {
				return err
			}
			if v != 10*r+c.Rank() {
				return fmt.Errorf("rank %d: from rank %d got %d", c.Rank(), r, v)
			}
		}
		return nil
	}, WithHubOptions(seams))
	if err != nil {
		t.Fatalf("world formation with a paused start broadcast: %v", err)
	}
	if !paused {
		t.Fatal("the start broadcast was never paused: the seam did not fire")
	}
}
