package mpi

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The shared-memory transport's own suite: protocol selection (eager vs
// rendezvous vs chunked), the byte-exact crossovers, FIFO across mixed sizes,
// gob payloads, segment validation, host-mismatch fallback, and formation
// timeout. Behavioral parity with the other transports lives in
// parity_test.go and vector_test.go; failure semantics in shmfail_test.go.

// shmObserver installs shmTestHook and collects each rank's transport
// endpoint as its world starts, so tests can read protocol counters.
type shmObserver struct {
	mu sync.Mutex
	tr map[int]*shmTransport
}

func observeShm(t *testing.T) *shmObserver {
	t.Helper()
	o := &shmObserver{tr: make(map[int]*shmTransport)}
	shmTestHook = func(st *shmTransport) {
		o.mu.Lock()
		o.tr[st.rank] = st
		o.mu.Unlock()
	}
	t.Cleanup(func() { shmTestHook = nil })
	return o
}

func (o *shmObserver) get(rank int) *shmTransport {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tr[rank]
}

func (o *shmObserver) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.tr)
}

func skipNoShm(t *testing.T) {
	t.Helper()
	if !shmSupported {
		t.Skip("shared-memory transport unsupported on this platform")
	}
}

// TestShmProtocolSelection: payload size picks the protocol — small
// payloads travel eagerly in the ring, mid-size ones rendezvous through a
// single staged block, and payloads above the block ceiling are chunked.
// All three arrive intact, and no same-host pair falls back to TCP.
func TestShmProtocolSelection(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)

	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%97) + 0.5
		}
		return v
	}
	small := mk(64)       // 512 B: eager
	mid := mk(64 << 10)   // 512 KiB: rendezvous, single block
	huge := mk(400 << 10) // 3.2 MiB: above maxBlockPayload, chunked
	var snap shmTransportStats

	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				for i, v := range [][]float64{small, mid, huge} {
					if err := c.Send(1, i, v); err != nil {
						return err
					}
				}
				if _, err := c.Recv(1, 9, nil); err != nil { // ack: all received
					return err
				}
				snap = obs.get(0).statsSnapshot()
				return nil
			}
			for i, want := range [][]float64{small, mid, huge} {
				var got []float64
				if _, err := c.Recv(0, i, &got); err != nil {
					return err
				}
				if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
					return fmt.Errorf("payload %d corrupted: len %d want %d", i, len(got), len(want))
				}
			}
			return c.Send(0, 9, "done")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.count() != 2 {
		t.Fatalf("observed %d shm endpoints, want 2", obs.count())
	}
	if snap.Eager == 0 || snap.Rendezvous == 0 || snap.Chunked == 0 {
		t.Fatalf("sender stats %+v: want all of eager, rendezvous, chunked exercised", snap)
	}
	if snap.Fallback != 0 {
		t.Fatalf("sender stats %+v: same-host pairs must not fall back to TCP", snap)
	}
}

// TestShmEagerRendezvousCrossover: payload size alone picks the protocol,
// to the byte. A []byte of 16 KiB (shmEagerMax) travels eagerly and one byte
// more rendezvous through a staged block; a block of maxBlockPayload bytes is
// still staged whole and one byte more is chunked. Raw floats and gob-encoded
// values cross the same line. Every payload is delivered once into a receive
// posted ahead and once from the unexpected queue, intact, and each send moves
// the sender's counters by exactly one, in the protocol named.
func TestShmEagerRendezvousCrossover(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)

	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	strs := make([]string, 64) // ~32 KiB once gob-encoded
	for i := range strs {
		strs[i] = strings.Repeat(string(rune('a'+i%26)), 512)
	}
	blockMax := int(defaultShmLargeCap)/2 - 2*shmBlkHdrSize
	eager, rdv, chunked := shmTransportStats{Eager: 1}, shmTransportStats{Rendezvous: 1}, shmTransportStats{Chunked: 1}
	cases := []struct {
		name string
		v    any
		want shmTransportStats
	}{
		{"bytes 16 KiB", bytesOf(16 << 10), eager},
		{"bytes 16 KiB+1", bytesOf(16<<10 + 1), rdv},
		{"floats 2048", make([]float64, 2048), eager},
		{"floats 2049", make([]float64, 2049), rdv},
		{"gob small", strs[:2], eager},
		{"gob 32 KiB", strs, rdv},
		{"bytes block max", bytesOf(blockMax), rdv},
		{"bytes block max+1", bytesOf(blockMax + 1), chunked},
	}
	const ready, sent = 100, 101

	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				for _, posted := range []bool{true, false} {
					if posted {
						if _, err := c.Recv(1, ready, nil); err != nil {
							return err
						}
					}
					for i, tc := range cases {
						s0 := obs.get(0).statsSnapshot()
						if err := c.Send(1, i, tc.v); err != nil {
							return err
						}
						s1 := obs.get(0).statsSnapshot()
						d := shmTransportStats{
							Eager:      s1.Eager - s0.Eager,
							Rendezvous: s1.Rendezvous - s0.Rendezvous,
							Chunked:    s1.Chunked - s0.Chunked,
						}
						if d != tc.want {
							return fmt.Errorf("%s (posted=%v): counter deltas %+v, want %+v", tc.name, posted, d, tc.want)
						}
						if err := c.Send(1, sent, true); err != nil {
							return err
						}
					}
					if _, err := c.Recv(1, ready, nil); err != nil { // all received
						return err
					}
				}
				return nil
			}
			for _, posted := range []bool{true, false} {
				dsts := make([]reflect.Value, len(cases))
				reqs := make([]*Request, len(cases))
				for i, tc := range cases {
					dsts[i] = reflect.New(reflect.TypeOf(tc.v))
					if posted {
						reqs[i] = c.Irecv(0, i, dsts[i].Interface())
					}
				}
				if posted {
					if err := c.Send(0, ready, true); err != nil {
						return err
					}
				}
				// Per-pair FIFO: once a payload's marker is in, the payload
				// has been delivered, to its posted receive or to the
				// unexpected queue. Unexpected ones are taken one at a
				// time: a staged block held there keeps its space, and the
				// largest leaves no room for the next.
				for i, tc := range cases {
					if _, err := c.Recv(0, sent, nil); err != nil {
						return err
					}
					if posted {
						if _, err := reqs[i].Wait(); err != nil {
							return err
						}
					} else if _, err := c.Recv(0, i, dsts[i].Interface()); err != nil {
						return err
					}
					if !reflect.DeepEqual(dsts[i].Elem().Interface(), tc.v) {
						return fmt.Errorf("%s (posted=%v): payload corrupted", tc.name, posted)
					}
				}
				if err := c.Send(0, ready, true); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmMixedSizeFIFO: a pair's ordering guarantee holds across protocol
// switches — eager, rendezvous, and chunked messages interleaved on one tag
// arrive in send order, each intact.
func TestShmMixedSizeFIFO(t *testing.T) {
	skipNoShm(t)
	sizes := []int{1, 3000, 96 << 10, 9, 300 << 10, 2} // elements; straddles all three protocols
	const rounds = 8
	err := runWithWatchdog(t, 60*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				seq := 0.0
				for r := 0; r < rounds; r++ {
					for _, n := range sizes {
						v := make([]float64, n)
						v[n-1] = seq + 0.25
						v[0] = seq // n == 1: the stamp wins
						if err := c.Send(1, 5, v); err != nil {
							return err
						}
						seq++
					}
				}
				return nil
			}
			seq := 0.0
			for r := 0; r < rounds; r++ {
				for _, n := range sizes {
					var v []float64
					if _, err := c.Recv(0, 5, &v); err != nil {
						return err
					}
					wantLast := seq + 0.25
					if n == 1 {
						wantLast = seq
					}
					if len(v) != n || v[0] != seq || v[n-1] != wantLast {
						return fmt.Errorf("round %d: got len %d first %v last %v, want len %d seq %v",
							r, len(v), v[0], v[len(v)-1], n, seq)
					}
					seq++
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmGobPayloads: payloads outside the raw-codec whitelist travel as
// gob bytes through the same eager and rendezvous machinery and round-trip
// exactly.
func TestShmGobPayloads(t *testing.T) {
	skipNoShm(t)
	type record struct {
		Name string
		Vals []float64
	}
	small := record{Name: "eager", Vals: []float64{1, 2, 3}}
	big := record{Name: "rendezvous", Vals: make([]float64, 64<<10)}
	for i := range big.Vals {
		big.Vals[i] = float64(i)
	}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 1, small); err != nil {
					return err
				}
				return c.Send(1, 2, big)
			}
			var a, b record
			if _, err := c.Recv(0, 1, &a); err != nil {
				return err
			}
			if _, err := c.Recv(0, 2, &b); err != nil {
				return err
			}
			if a.Name != small.Name || len(a.Vals) != len(small.Vals) {
				return fmt.Errorf("small record corrupted: %+v", a)
			}
			if b.Name != big.Name || len(b.Vals) != len(big.Vals) || b.Vals[12345] != 12345 {
				return fmt.Errorf("big record corrupted: name %q len %d", b.Name, len(b.Vals))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmRecvStatus: a receive over shm reports the matched message's
// source, tag, and a positive byte count.
func TestShmRecvStatus(t *testing.T) {
	skipNoShm(t)
	err := runWithWatchdog(t, 15*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 7, make([]float64, 1024))
			}
			var v []float64
			st, err := c.Recv(AnySource, AnyTag, &v)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes <= 0 {
				return fmt.Errorf("status %v, want source 0 tag 7 positive bytes", st)
			}
			if len(v) != 1024 {
				return fmt.Errorf("len %d, want 1024", len(v))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmOutstandingReclaimed: after a drained rendezvous-heavy exchange,
// every staged block has been freed and lazily reclaimed — the allocator
// reports no outstanding large-message bytes.
func TestShmOutstandingReclaimed(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			peer := 1 - c.Rank()
			v := make([]float64, 64<<10) // 512 KiB, rendezvous
			for i := 0; i < 20; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, i, v); err != nil {
						return err
					}
					if _, err := c.Recv(peer, i, nil); err != nil {
						return err
					}
				} else {
					var got []float64
					if _, err := c.Recv(peer, i, &got); err != nil {
						return err
					}
					if err := c.Send(peer, i, got); err != nil {
						return err
					}
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// The receiver frees blocks as it decodes; the sender reclaims
			// lazily. Poll briefly: the last ack's block may still be in
			// flight on the other side when the barrier releases us.
			st := obs.get(c.Rank())
			deadline := time.Now().Add(2 * time.Second)
			for {
				if st.statsSnapshot().OutstandingLargeBytes == 0 {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("rank %d: %d large bytes never reclaimed",
						c.Rank(), st.statsSnapshot().OutstandingLargeBytes)
				}
				time.Sleep(time.Millisecond)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShmSegmentValidation: segment creation and mapping reject malformed
// inputs — bad rank counts, a file that is not a segment, and a world-shape
// mismatch.
func TestShmSegmentValidation(t *testing.T) {
	skipNoShm(t)
	if _, err := CreateShmSegment("", 0); err == nil {
		t.Fatal("CreateShmSegment(np=0) succeeded")
	}
	if _, err := CreateShmSegment("", maxShmRanks+1); err == nil {
		t.Fatalf("CreateShmSegment(np=%d) succeeded", maxShmRanks+1)
	}

	junk := filepath.Join(t.TempDir(), "junk.seg")
	if err := os.WriteFile(junk, make([]byte, shmSegHdrSize), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := openShmSegment(junk, 2); err == nil || !strings.Contains(err.Error(), "not an initialized") {
		t.Fatalf("openShmSegment(junk) = %v, want uninitialized-segment error", err)
	}

	seg, err := CreateShmSegment(filepath.Join(t.TempDir(), "np2.seg"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(seg)
	if _, err := openShmSegment(seg, 3); err == nil || !strings.Contains(err.Error(), "built for 2 ranks") {
		t.Fatalf("openShmSegment(np mismatch) = %v, want world-shape error", err)
	}
	s, err := openShmSegment(seg, 2)
	if err != nil {
		t.Fatalf("openShmSegment(valid) = %v", err)
	}
	s.unmap()
}

// TestShmHostMismatchFallsBackToTCP: a segment stamped by a different host
// (a path shared over a network filesystem, say) silently degrades every
// rank to the TCP data plane — the world still completes, and no shm
// endpoint is ever created.
func TestShmHostMismatchFallsBackToTCP(t *testing.T) {
	skipNoShm(t)
	obs := observeShm(t)
	seg, err := CreateShmSegment(filepath.Join(t.TempDir(), "foreign.seg"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(seg)
	// Stamp the segment as created elsewhere.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := make([]byte, shmHostIDLen)
	copy(foreign, "some-other-host")
	if _, err := f.WriteAt(foreign, shmOffHostID); err != nil {
		t.Fatal(err)
	}
	f.Close()

	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = JoinShm(hub.Addr(), seg, rank, 2, func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 1, make([]float64, 32<<10))
				}
				var v []float64
				if _, err := c.Recv(0, 1, &v); err != nil {
					return err
				}
				if len(v) != 32<<10 {
					return fmt.Errorf("len %d, want %d", len(v), 32<<10)
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if n := obs.count(); n != 0 {
		t.Fatalf("%d shm endpoints created on a foreign segment, want 0 (pure TCP)", n)
	}
}

// TestShmFormationTimeout: a shm world whose peer never starts fails fast —
// the hub's formation timeout fires, names the missing rank, and releases
// the joined rank with the failure instead of leaving it parked on the
// start signal.
func TestShmFormationTimeout(t *testing.T) {
	skipNoShm(t)
	seg, err := CreateShmSegment(filepath.Join(t.TempDir(), "lonely.seg"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(seg)
	hub, err := StartHub("127.0.0.1:0", 2, HubFormationTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	joined := make(chan error, 1)
	go func() {
		joined <- JoinShm(hub.Addr(), seg, 0, 2, func(c *Comm) error { return nil })
	}()
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
	if !strings.Contains(werr.Error(), "1") || strings.Contains(werr.Error(), "[0") {
		t.Fatalf("hub.Wait = %v, want rank 1 (and only rank 1) reported missing", werr)
	}
	select {
	case jerr := <-joined:
		if jerr == nil {
			t.Fatal("joined rank reported success in a world that never formed")
		}
		if !errors.Is(jerr, ErrWorldAborted) && !strings.Contains(jerr.Error(), "formation") {
			t.Fatalf("joined rank err = %v, want the formation failure", jerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined rank still blocked after formation timeout")
	}
}

// TestShmWorldAbort: a rank failure on the shm transport revokes the world
// exactly like the other transports — survivors' blocked receives return
// ErrWorldAborted with the failing rank named.
func TestShmWorldAbort(t *testing.T) {
	skipNoShm(t)
	boom := errors.New("boom")
	err := runWithWatchdog(t, 15*time.Second, func() error {
		return RunShm(3, func(c *Comm) error {
			if c.Rank() == 2 {
				return boom
			}
			_, rerr := c.Recv(2, 1, nil) // never satisfied: the revoke must unblock it
			return rerr
		})
	})
	if !errors.Is(err, ErrWorldAborted) {
		t.Fatalf("err = %v, want ErrWorldAborted", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("err = %v, want the failing rank named", err)
	}
}

// TestShmSegmentUnlinkedOnceWorldForms: every rank maps the segment before
// its hello, so once the start signal is in the path has no reader left and
// the ranks unlink it — a run killed later (a test's timeout, a signal to the
// launcher) leaves nothing in /dev/shm. The world runs on, on the mapping.
func TestShmSegmentUnlinkedOnceWorldForms(t *testing.T) {
	skipNoShm(t)
	const np = 3
	err := RunShm(np, func(c *Comm) error {
		path := c.world.shmT.seg.path
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("rank %d: the segment path %s is still there with the world running (stat: %v)", c.Rank(), path, err)
		}
		big := make([]float64, 1<<15) // 256 KiB: a rendezvous through the mapping
		big[len(big)-1] = float64(c.Rank())
		var got []float64
		if _, err := c.Sendrecv((c.Rank()+1)%np, 0, big, (c.Rank()+np-1)%np, 0, &got); err != nil {
			return err
		}
		if want := float64((c.Rank() + np - 1) % np); len(got) != len(big) || got[len(got)-1] != want {
			return fmt.Errorf("rank %d: ring exchange over the unlinked segment got %d values ending in %v", c.Rank(), len(got), got[len(got)-1])
		}
		if st := &c.world.shmT.stats; st.rendezvous.Load() == 0 || st.fallback.Load() != 0 {
			return fmt.Errorf("rank %d: %d rendezvous sends and %d over the TCP fallback, want the mapping to carry the exchange", c.Rank(), st.rendezvous.Load(), st.fallback.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
