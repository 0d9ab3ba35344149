package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Resilient-session and respawn-recovery integration tests: a severed
// connection resumes within the suspicion grace window, a corrupted frame is
// retransmitted from the replay buffer, a slow-but-connected rank is never
// declared failed, and a killed rank is relaunched into its old slot at the
// original world width.

// TestDisconnectFaultReconnects is the headline resilience scenario: a
// seeded FaultDisconnect severs a worker's hub connection mid-run, and under
// HubSuspicion the session resumes — the program completes with zero failed
// ranks and every message intact. No WithRecovery: the program never even
// observes the break.
func TestDisconnectFaultReconnects(t *testing.T) {
	const np = 4
	rep := &FaultReport{}
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 5, Count: 1, Action: FaultDisconnect},
		{Src: 3, Dst: AnySource, Tag: AnyTag, SkipFirst: 11, Count: 1, Action: FaultDisconnect},
	}}
	var mu sync.Mutex
	sums := map[int][]float64{}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(np, func(c *Comm) error {
			for iter := 0; iter < 12; iter++ {
				mine := []float64{float64(c.Rank()), float64(iter)}
				got, err := AllreduceSlice(c, mine, func(a, b float64) float64 { return a + b })
				if err != nil {
					return err
				}
				want := []float64{float64(np * (np - 1) / 2), float64(np * iter)}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("rank %d iter %d: allreduce %v, want %v", c.Rank(), iter, got, want)
				}
			}
			mu.Lock()
			sums[c.Rank()] = []float64{1}
			mu.Unlock()
			return nil
		}, WithHubOptions(HubSuspicion(5*time.Second)), WithFaults(plan), WithFaultReport(rep))
	})
	if err != nil {
		t.Fatalf("disconnected world should resume and complete, got %v", err)
	}
	if len(sums) != np {
		t.Fatalf("only %d of %d ranks completed", len(sums), np)
	}
	injected := rep.Injected()
	if len(injected) != 2 {
		t.Fatalf("expected 2 injected disconnects, got %v", injected)
	}
	for _, f := range injected {
		if f.Action != FaultDisconnect {
			t.Fatalf("unexpected fault injected: %v", f)
		}
	}
}

// TestDisconnectFaultLargeFrames: the severed send is a payload too large
// for the replay buffer — it streams as a gap, and the session layer must
// capture it on the failed write so the resume still has clean bytes.
func TestDisconnectFaultLargeFrames(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 0, Dst: 1, Tag: 3, SkipFirst: 2, Count: 1, Action: FaultDisconnect},
	}}
	payload := make([]float64, 32<<10) // 256 KiB: 4x replayFrameMax, streamed
	for i := range payload {
		payload[i] = float64(i)
	}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			for iter := 0; iter < 6; iter++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 3, payload); err != nil {
						return err
					}
					continue
				}
				var got []float64
				if _, err := c.Recv(0, 3, &got); err != nil {
					return err
				}
				if len(got) != len(payload) || got[0] != 0 || got[len(got)-1] != payload[len(payload)-1] {
					return fmt.Errorf("iter %d: payload corrupted in resume", iter)
				}
			}
			return nil
		}, WithHubOptions(HubSuspicion(5*time.Second)), WithFaults(plan))
	})
	if err != nil {
		t.Fatalf("large-frame disconnect should resume, got %v", err)
	}
}

// TestDisconnectWithoutSuspicionIsFatal: the same severed connection with no
// grace window configured is what it always was — rank death.
func TestDisconnectWithoutSuspicionIsFatal(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 2, Count: 1, Action: FaultDisconnect},
	}}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			for iter := 0; iter < 50; iter++ {
				if _, err := Allreduce(c, 1, func(a, b int) int { return a + b }); err != nil {
					return err
				}
			}
			return nil
		}, WithFaults(plan))
	})
	if err == nil {
		t.Fatal("disconnect without HubSuspicion should fail the world")
	}
}

// TestCorruptFaultHealedBySession: a seeded bit flip on the wire is caught
// by the frame CRC; the connection is torn down and the clean captured copy
// is retransmitted on resume, so the receiver observes only intact data and
// the run completes cleanly.
func TestCorruptFaultHealedBySession(t *testing.T) {
	rep := &FaultReport{}
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 0, Dst: 1, Tag: 3, SkipFirst: 1, Count: 1, Action: FaultCorrupt},
	}}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			for iter := 0; iter < 8; iter++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 3, []int64{int64(iter), 7, 9}); err != nil {
						return err
					}
					continue
				}
				var got []int64
				if _, err := c.Recv(0, 3, &got); err != nil {
					return err
				}
				if want := []int64{int64(iter), 7, 9}; !reflect.DeepEqual(got, want) {
					return fmt.Errorf("iter %d: received %v, want %v — corruption leaked through", iter, got, want)
				}
			}
			return nil
		}, WithHubOptions(HubSuspicion(5*time.Second)), WithFaults(plan), WithFaultReport(rep))
	})
	if err != nil {
		t.Fatalf("corrupted frame should be healed by retransmit, got %v", err)
	}
	injected := rep.Injected()
	if len(injected) != 1 || injected[0].Action != FaultCorrupt {
		t.Fatalf("expected exactly one injected corruption, got %v", injected)
	}
}

// TestCorruptFaultWithoutSuspicionSurfaces: with no resumable session the
// CRC failure is fatal, and the error names the corrupt frame rather than
// passing bad bytes to the program.
func TestCorruptFaultWithoutSuspicionSurfaces(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 0, Dst: 1, Tag: 3, Count: 1, Action: FaultCorrupt},
	}}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunTCP(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 3, []float64{1, 2, 3})
			}
			var got []float64
			_, err := c.Recv(0, 3, &got)
			return err
		}, WithFaults(plan))
	})
	if err == nil {
		t.Fatal("unresumable corruption should fail the world")
	}
	if !strings.Contains(err.Error(), "corrupt frame") {
		t.Fatalf("failure should name the corrupt frame, got %v", err)
	}
}

// TestDelayedRankNeverDeclaredFailed: a rank slowed by FaultDelay — but
// still connected and answering heartbeats — must never be promoted to
// failed, with typed and with gob payloads. Suspicion and
// heartbeat react to broken connections and dead processes, not to slowness;
// that is WithDeadline's job.
func TestDelayedRankNeverDeclaredFailed(t *testing.T) {
	// A []int travels raw on the TCP wire; a scalar int is a gob payload.
	wires := []struct {
		name      string
		allreduce func(c *Comm) error
	}{
		{"typed", func(c *Comm) error {
			_, err := Allreduce(c, []int{1}, func(a, b []int) []int { return []int{a[0] + b[0]} })
			return err
		}},
		{"gob", func(c *Comm) error {
			_, err := Allreduce(c, 1, func(a, b int) int { return a + b })
			return err
		}},
	}
	for _, wire := range wires {
		wire := wire
		t.Run(wire.name, func(t *testing.T) {
			plan := FaultPlan{Rules: []FaultRule{
				{Src: 1, Dst: AnySource, Tag: AnyTag, Count: 6, Action: FaultDelay, Delay: 120 * time.Millisecond},
			}}
			var mu sync.Mutex
			observedFailed := map[int][]int{}
			err := runWithWatchdog(t, 60*time.Second, func() error {
				return RunTCP(3, func(c *Comm) error {
					for iter := 0; iter < 8; iter++ {
						if err := wire.allreduce(c); err != nil {
							return err
						}
					}
					mu.Lock()
					observedFailed[c.Rank()] = c.FailedRanks()
					mu.Unlock()
					return nil
				}, WithRecovery(), WithFaults(plan),
					WithHubOptions(HubHeartbeat(25*time.Millisecond), HubSuspicion(2*time.Second)))
			})
			if err != nil {
				t.Fatalf("slow rank must not fail the world, got %v", err)
			}
			if len(observedFailed) != 3 {
				t.Fatalf("only %d of 3 ranks completed", len(observedFailed))
			}
			for r, failed := range observedFailed {
				if len(failed) != 0 {
					t.Errorf("rank %d observed failed ranks %v; slowness is not failure", r, failed)
				}
			}
		})
	}
}

// respawnLaunchers: respawn recovery must behave identically on the
// in-process, TCP, and shared-memory transports (shm worlds rejoin the
// respawned rank over the TCP fallback).
var respawnLaunchers = func() []launcher {
	ls := []launcher{
		{"local", Run},
		{"tcp", RunTCP},
	}
	if shmSupported {
		ls = append(ls, launcher{"shm", RunShm})
	}
	return ls
}()

// TestRespawnRestoresFullWidth: a killed rank is relaunched into its old
// slot; survivors and the newcomer meet in Restored, agree on the restored
// membership, and the world continues at the original width.
func TestRespawnRestoresFullWidth(t *testing.T) {
	const np = 4
	sum := func(a, b int) int { return a + b }
	for _, l := range respawnLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			plan := FaultPlan{Rules: []FaultRule{
				{Src: 2, Dst: AnySource, Tag: AnyTag, SkipFirst: 6, Count: 1, Action: FaultKillRank},
			}}
			var mu sync.Mutex
			finalSizes := map[int]int{}
			err := runWithWatchdog(t, 60*time.Second, func() error {
				return l.run(np, func(c *Comm) error {
					comm := c
					iters := 0
					for iters < 25 {
						got, err := Allreduce(comm, 1, sum)
						if err != nil {
							if !errors.Is(err, ErrRankFailed) {
								return err // this incarnation was killed
							}
							nc, rerr := comm.restored()
							if rerr != nil {
								return rerr
							}
							comm = nc
							iters = 0
							continue
						}
						if got != comm.Size() {
							return fmt.Errorf("allreduce got %d want %d", got, comm.Size())
						}
						iters++
					}
					mu.Lock()
					finalSizes[c.Rank()] = comm.Size()
					mu.Unlock()
					return nil
				}, WithRespawn(), WithFaults(plan))
			})
			if err != nil {
				t.Fatalf("respawned world should complete, got %v", err)
			}
			if len(finalSizes) != np {
				t.Fatalf("%d of %d ranks finished at full width: %v", len(finalSizes), np, finalSizes)
			}
			for r, size := range finalSizes {
				if size != np {
					t.Errorf("rank %d finished on a comm of size %d, want %d", r, size, np)
				}
			}
		})
	}
}

// TestRespawnRacingKills: two ranks die at different times; both are
// respawned and the world still converges at full width.
func TestRespawnRacingKills(t *testing.T) {
	const np = 5
	sum := func(a, b int) int { return a + b }
	for _, l := range respawnLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			plan := FaultPlan{Rules: []FaultRule{
				{Src: 1, Dst: AnySource, Tag: AnyTag, SkipFirst: 4, Count: 1, Action: FaultKillRank},
				{Src: 3, Dst: AnySource, Tag: AnyTag, SkipFirst: 9, Count: 1, Action: FaultKillRank},
			}}
			err := runWithWatchdog(t, 90*time.Second, func() error {
				return l.run(np, func(c *Comm) error {
					comm := c
					iters := 0
					for iters < 20 {
						_, err := Allreduce(comm, 1, sum)
						if err != nil {
							if !errors.Is(err, ErrRankFailed) {
								return err
							}
							nc, rerr := comm.restored()
							if rerr != nil {
								return rerr
							}
							comm = nc
							iters = 0
							continue
						}
						iters++
					}
					if comm.Size() != np {
						return fmt.Errorf("rank %d finished at width %d, want %d", c.Rank(), comm.Size(), np)
					}
					return nil
				}, WithRespawn(), WithFaults(plan))
			})
			if err != nil {
				t.Fatalf("doubly-respawned world should complete, got %v", err)
			}
		})
	}
}

// TestRestoredTimeoutFallsBackToShrink: Restored has no timeout, and the
// members give up on the full width together, never one alone:
//   - failed-never-respawned: a WithRecovery world relaunches nobody, so
//     Restored refuses at once, entering no agreement — rank 2 is held alive
//     until both survivors have been refused, and an agreement would wait
//     for it;
//   - departed: rank 2's main returns nil, and the restore agreement counts
//     it out;
//   - abandoned: rank 2 fails on every incarnation until the launcher's
//     relaunches are spent, and the coordinator marks it gone for good.
//
// Each survivor gets ErrRestoreTimeout naming why, then Recover shrinks both
// to width 2.
func TestRestoredTimeoutFallsBackToShrink(t *testing.T) {
	cases := []struct {
		name  string
		opt   Option
		rank2 error // what rank 2's main returns
		want  string
	}{
		{"failed-never-respawned", WithRecovery(), errDeliberate, "without WithRespawn"},
		{"departed", WithRespawn(), nil, "ranks [2] departed"},
		{"abandoned", WithRespawn(), errDeliberate, "ranks [2] departed or will not come back"},
	}
	for _, l := range respawnLaunchers {
		for _, tc := range cases {
			l, tc := l, tc
			t.Run(l.name+"/"+tc.name, func(t *testing.T) {
				var refused sync.WaitGroup
				refused.Add(2)
				err := runWithWatchdog(t, 30*time.Second, func() error {
					return l.run(3, func(c *Comm) error {
						if c.Rank() == 2 {
							if tc.name == "failed-never-respawned" {
								refused.Wait()
							}
							return tc.rank2
						}
						_, rerr := c.restored()
						refused.Done()
						if !errors.Is(rerr, ErrRestoreTimeout) || !strings.Contains(rerr.Error(), tc.want) {
							return fmt.Errorf("want ErrRestoreTimeout naming %q, got %v", tc.want, rerr)
						}
						nc, err := c.Recover()
						if err != nil {
							return err
						}
						if nc.Size() != 2 {
							return fmt.Errorf("recovered width %d, want 2", nc.Size())
						}
						return nc.Barrier()
					}, tc.opt)
				})
				if err != nil {
					t.Fatalf("Restored-then-shrink should recover, got %v", err)
				}
			})
		}
	}
}

// TestRecoverWidth: Recover is the one recovery call of both world kinds.
// Rank 2 fails once (relaunched where the world respawns), fails on every
// incarnation until it is gone for good, or departs; every member that
// finishes returns the same width from Recover, and an allreduce over the
// returned communicator counts exactly that many members.
func TestRecoverWidth(t *testing.T) {
	const np = 4
	modes := []struct {
		name       string
		opt        Option
		relaunched int // width when rank 2 fails once
	}{
		{"recovery", WithRecovery(), np - 1},
		{"respawn", WithRespawn(), np},
	}
	scenarios := []struct {
		name  string
		rank2 func(incarnation int32) (returns bool, err error)
	}{
		{"relaunched", func(n int32) (bool, error) { return n == 0, errDeliberate }},
		{"gone", func(int32) (bool, error) { return true, errDeliberate }},
		{"departed", func(int32) (bool, error) { return true, nil }},
	}
	sum := func(a, b int) int { return a + b }
	for _, l := range respawnLaunchers {
		for _, mode := range modes {
			for _, sc := range scenarios {
				l, mode, sc := l, mode, sc
				want := np - 1
				if sc.name == "relaunched" {
					want = mode.relaunched
				}
				t.Run(l.name+"/"+mode.name+"/"+sc.name, func(t *testing.T) {
					var incarnations atomic.Int32
					var mu sync.Mutex
					widths := map[int]int{}
					err := runWithWatchdog(t, 30*time.Second, func() error {
						return l.run(np, func(c *Comm) error {
							if c.Rank() == 2 {
								if returns, err := sc.rank2(incarnations.Add(1) - 1); returns {
									return err
								}
							}
							nc, err := c.Recover()
							if err != nil {
								return err
							}
							got, err := Allreduce(nc, 1, sum)
							if err != nil {
								return err
							}
							if got != nc.Size() {
								return fmt.Errorf("allreduce over width %d counted %d", nc.Size(), got)
							}
							mu.Lock()
							widths[c.Rank()] = nc.Size()
							mu.Unlock()
							return nil
						}, mode.opt)
					})
					if err != nil {
						t.Fatalf("recovered run should succeed, got %v", err)
					}
					if len(widths) != want {
						t.Fatalf("%d members finished, want %d: %v", len(widths), want, widths)
					}
					for r, w := range widths {
						if w != want {
							t.Errorf("rank %d: Recover returned width %d, want %d", r, w, want)
						}
					}
				})
			}
		}
	}
}

// TestHubGoneAfterFormationBudget: the hub's own rule for launchers outside
// the package. A respawn world on a hub with a short formation budget loses
// rank 2, and nothing relaunches it. The survivors wait in Restored with no
// deadline; once the budget has passed, the hub marks rank 2 gone for good
// and both give up in the same agreement. A rejoin arriving after that is
// refused, leaving the epoch and the failed set as they were, and the
// survivors finish at width 2.
func TestHubGoneAfterFormationBudget(t *testing.T) {
	const np = 3
	hub, err := StartHub("127.0.0.1:0", np, HubRecovery(), HubFormationTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var gaveUp sync.WaitGroup
	gaveUp.Add(2)
	rejoinTried := make(chan struct{})
	body := func(c *Comm) error {
		if c.Rank() == 2 {
			return errDeliberate
		}
		_, rerr := c.restored()
		gaveUp.Done()
		if !errors.Is(rerr, ErrRestoreTimeout) || !strings.Contains(rerr.Error(), "ranks [2]") {
			return fmt.Errorf("want ErrRestoreTimeout naming rank 2, got %v", rerr)
		}
		<-rejoinTried
		nc, err := c.Recover()
		if err != nil {
			return err
		}
		if nc.Size() != 2 {
			return fmt.Errorf("recovered width %d, want 2", nc.Size())
		}
		return nc.Barrier()
	}
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		go func(r int) { errs <- JoinTCP(hub.Addr(), r, np, body, WithRespawn()) }(r)
	}
	err = runWithWatchdog(t, 30*time.Second, func() error {
		gaveUp.Wait()
		ran := false
		rerr := RejoinTCP(hub.Addr(), 2, np, func(*Comm) error { ran = true; return nil }, WithRespawn())
		if rerr == nil || ran {
			return fmt.Errorf("rejoin of a gone rank admitted (ran %v, err %v)", ran, rerr)
		}
		hub.mu.Lock()
		e := hub.m.epoch
		hub.mu.Unlock()
		if failed := hub.FailedRanks(); e != 0 || !reflect.DeepEqual(failed, []int{2}) {
			return fmt.Errorf("refused rejoin moved the hub: epoch %d, failed %v", e, failed)
		}
		close(rejoinTried)
		var failures int
		for r := 0; r < np; r++ {
			if err := <-errs; err != nil {
				if !errors.Is(err, errDeliberate) {
					return err
				}
				failures++
			}
		}
		if failures != 1 {
			return fmt.Errorf("%d ranks failed, want rank 2 alone", failures)
		}
		return hub.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}
