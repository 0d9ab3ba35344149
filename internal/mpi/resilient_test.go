package mpi

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
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

// corruptRows are the payloads a corrupted frame carries in the FaultCorrupt
// tests: a raw []int64, and gob payloads — a scalar and a []string. value is
// what rank 0 sends on iteration iter; recv receives it at rank 1 and returns
// what arrived, in value's form.
var corruptRows = []struct {
	name  string
	value func(iter int) any
	recv  func(c *Comm) (any, error)
}{
	{"[]int64", func(iter int) any { return []int64{int64(iter), 7, 9} }, func(c *Comm) (any, error) {
		var got []int64
		_, err := c.Recv(0, 3, &got)
		return got, err
	}},
	{"scalar", func(iter int) any { return iter + 7 }, func(c *Comm) (any, error) {
		var got int
		_, err := c.Recv(0, 3, &got)
		return got, err
	}},
	{"[]string", func(iter int) any { return []string{fmt.Sprint(iter), "seven"} }, func(c *Comm) (any, error) {
		var got []string
		_, err := c.Recv(0, 3, &got)
		return got, err
	}},
}

// TestCorruptFaultHealedBySession: a seeded bit flip on the wire is caught
// by the frame CRC, whatever the payload; the connection is torn down and the
// clean captured copy is retransmitted on resume, so the receiver observes
// only intact data and the run completes cleanly. The flip lands on the frame
// the rule matched: a streamed frame (a replay gap, which no resume can heal)
// follows the loop, and a flip still armed would land there.
func TestCorruptFaultHealedBySession(t *testing.T) {
	for _, row := range corruptRows {
		t.Run(row.name, func(t *testing.T) {
			rep := &FaultReport{}
			plan := FaultPlan{Rules: []FaultRule{
				{Src: 0, Dst: 1, Tag: 3, SkipFirst: 1, Count: 1, Action: FaultCorrupt},
			}}
			streamed := make([]float64, replayFrameMax/8+1)
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return RunTCP(2, func(c *Comm) error {
					if c.Rank() == 0 {
						for iter := 0; iter < 8; iter++ {
							if err := c.Send(1, 3, row.value(iter)); err != nil {
								return err
							}
						}
						if _, err := c.Recv(1, 5, nil); err != nil {
							return err
						}
						return c.Send(1, 4, streamed)
					}
					for iter := 0; iter < 8; iter++ {
						got, err := row.recv(c)
						if err != nil {
							return err
						}
						if want := row.value(iter); !reflect.DeepEqual(got, want) {
							return fmt.Errorf("iter %d: received %v, want %v — corruption leaked through", iter, got, want)
						}
					}
					if err := c.Send(0, 5, 0); err != nil {
						return err
					}
					var got []float64
					_, err := c.Recv(0, 4, &got)
					return err
				}, WithHubOptions(HubSuspicion(5*time.Second)), WithFaults(plan), WithFaultReport(rep))
			})
			if err != nil {
				t.Fatalf("corrupted frame should be healed by retransmit, got %v", err)
			}
			injected := rep.Injected()
			if len(injected) != 1 || injected[0].Action != FaultCorrupt {
				t.Fatalf("expected exactly one injected corruption, got %v", injected)
			}
		})
	}
}

// TestCorruptFaultWithoutSuspicionSurfaces: with no resumable session the
// CRC failure is fatal, whatever the payload, and the error names the
// corrupt frame rather than passing bad bytes to the program.
func TestCorruptFaultWithoutSuspicionSurfaces(t *testing.T) {
	for _, row := range []struct {
		name  string
		value any
		recv  any
	}{
		{"[]float64", []float64{1, 2, 3}, new([]float64)},
		{"scalar", 3, new(int)},
	} {
		t.Run(row.name, func(t *testing.T) {
			plan := FaultPlan{Rules: []FaultRule{
				{Src: 0, Dst: 1, Tag: 3, Count: 1, Action: FaultCorrupt},
			}}
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return RunTCP(2, func(c *Comm) error {
					if c.Rank() == 0 {
						return c.Send(1, 3, row.value)
					}
					_, err := c.Recv(0, 3, row.recv)
					return err
				}, WithFaults(plan))
			})
			if err == nil {
				t.Fatal("unresumable corruption should fail the world")
			}
			if !strings.Contains(err.Error(), "corrupt frame") {
				t.Fatalf("failure should name the corrupt frame, got %v", err)
			}
		})
	}
}

// TestCorruptFaultOverShmPassesThrough: the shm rings hand the receiver the
// memory the sender wrote, so FaultCorrupt on a ring frame is a pass-through;
// it must not arm the hub connection and flip a later frame there, such as the
// rank's done frame.
func TestCorruptFaultOverShmPassesThrough(t *testing.T) {
	if !shmSupported {
		t.Skip("no shared-memory transport on this platform")
	}
	plan := FaultPlan{Rules: []FaultRule{
		{Src: 0, Dst: 1, Tag: 3, Count: 1, Action: FaultCorrupt},
	}}
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return RunShm(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 3, []float64{1, 2, 3})
			}
			var got []float64
			if _, err := c.Recv(0, 3, &got); err != nil {
				return err
			}
			if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
				return fmt.Errorf("received %v", got)
			}
			return nil
		}, WithFaults(plan))
	})
	if err != nil {
		t.Fatalf("FaultCorrupt over shm should pass the frame through, got %v", err)
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
// respawned rank over the TCP fallback), and through mpirun's process
// launcher.
var respawnLaunchers = func() []launcher {
	ls := []launcher{
		{"local", Run},
		{"tcp", RunTCP},
		{"procs", runSupervised},
	}
	if shmSupported {
		ls = append(ls, launcher{"shm", RunShm})
	}
	return ls
}()

// runSupervised launches a world the way mpirun -transport procs does, with
// goroutines for the worker processes and only public API: a hub with
// HubRecovery and no formation timeout, the hub's supervisor, and JoinTCP /
// RejoinTCP for each incarnation. The respawn bit is mpirun's -respawn flag,
// read here from the options. The verdict is mpirun's under -recover: the
// hub's error, else success if any rank finished.
func runSupervised(np int, main func(c *Comm) error, opts ...Option) error {
	cfg := newConfig(opts)
	hub, err := StartHub("127.0.0.1:0", np, HubRecovery())
	if err != nil {
		return err
	}
	defer hub.Close()
	errs := hub.Supervise(cfg.relaunches > 0, func(rank int, rejoin bool) error {
		if rejoin {
			return RejoinTCP(hub.Addr(), rank, np, main, opts...)
		}
		return JoinTCP(hub.Addr(), rank, np, main, opts...)
	})
	if err := hub.Wait(); err != nil {
		return err
	}
	if slices.Contains(errs, nil) {
		return nil
	}
	return errors.Join(errs...)
}

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
//   - failed-never-respawned: a WithRecovery world's relaunch budget is 0,
//     so the coordinator marks rank 2 gone at its failure, and the restore
//     agreement counts it out at once;
//   - departed: rank 2's main returns nil, and the restore agreement counts
//     it out;
//   - abandoned: rank 2 fails on every incarnation until the launcher's
//     relaunches are spent (exactly 1 + maxRespawnsPerRank incarnations
//     run), and the supervisor marks it gone for good at once.
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
		{"failed-never-respawned", WithRecovery(), errDeliberate, "ranks [2] departed or will not come back"},
		{"departed", WithRespawn(), nil, "ranks [2] departed"},
		{"abandoned", WithRespawn(), errDeliberate, "ranks [2] departed or will not come back"},
	}
	for _, l := range respawnLaunchers {
		for _, tc := range cases {
			l, tc := l, tc
			t.Run(l.name+"/"+tc.name, func(t *testing.T) {
				var incarnations atomic.Int32
				err := runWithWatchdog(t, 30*time.Second, func() error {
					return l.run(3, func(c *Comm) error {
						if c.Rank() == 2 {
							incarnations.Add(1)
							return tc.rank2
						}
						_, rerr := c.restored()
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
				if n := incarnations.Load(); tc.name == "abandoned" && n != 1+maxRespawnsPerRank {
					t.Fatalf("rank 2 ran %d incarnations, want %d", n, 1+maxRespawnsPerRank)
				}
			})
		}
	}
}

// TestRecoverWidth: Recover is the one recovery call of both world kinds.
// Rank 2 fails once (relaunched where the world respawns), fails on every
// incarnation until it is gone for good, or departs; in two-in-turn, rank 2
// fails once, everyone recovers, then rank 3 fails once and everyone
// recovers again, so two restores run at one epoch where nobody is
// relaunched. Every member that finishes a round returns the same width from
// Recover, and an allreduce over the returned communicator counts exactly
// that many members.
func TestRecoverWidth(t *testing.T) {
	const np = 4
	modes := []struct {
		name string
		opt  Option
		lost int // ranks a failure that is relaunched costs the width
	}{
		{"recovery", WithRecovery(), 1},
		{"respawn", WithRespawn(), 0},
	}
	scenarios := []struct {
		name    string
		victims []int // the rank that fails in each round
		fate    func(incarnation int32) (returns bool, err error)
	}{
		{"relaunched", []int{2}, func(n int32) (bool, error) { return n == 0, errDeliberate }},
		{"gone", []int{2}, func(int32) (bool, error) { return true, errDeliberate }},
		{"departed", []int{2}, func(int32) (bool, error) { return true, nil }},
		{"two-in-turn", []int{2, 3}, func(n int32) (bool, error) { return n == 0, errDeliberate }},
	}
	sum := func(a, b int) int { return a + b }
	for _, l := range respawnLaunchers {
		for _, mode := range modes {
			for _, sc := range scenarios {
				l, mode, sc := l, mode, sc
				want := func(round int) int {
					if sc.name == "gone" || sc.name == "departed" {
						return np - 1
					}
					return np - (round+1)*mode.lost
				}
				t.Run(l.name+"/"+mode.name+"/"+sc.name, func(t *testing.T) {
					var incarnations [np]atomic.Int32
					var mu sync.Mutex
					widths := make([]map[int]int, len(sc.victims))
					finished := make([]chan struct{}, len(sc.victims))
					for r := range widths {
						widths[r], finished[r] = map[int]int{}, make(chan struct{})
					}
					err := runWithWatchdog(t, 30*time.Second, func() error {
						return l.run(np, func(c *Comm) error {
							me := c.Rank()
							n := incarnations[me].Add(1) - 1
							round := 0
							if n > 0 {
								round = slices.Index(sc.victims, me) // a relaunch rejoins the round it failed in
							}
							for comm := c; round < len(sc.victims); round++ {
								if me == sc.victims[round] {
									if returns, err := sc.fate(n); returns {
										return err
									}
								}
								nc, err := comm.Recover()
								if err != nil {
									return err
								}
								got, err := Allreduce(nc, 1, sum)
								if err != nil {
									return err
								}
								if got != nc.Size() {
									return fmt.Errorf("round %d: allreduce over width %d counted %d", round, nc.Size(), got)
								}
								mu.Lock()
								widths[round][me] = nc.Size()
								if len(widths[round]) == want(round) {
									close(finished[round])
								}
								mu.Unlock()
								if round+1 < len(sc.victims) {
									// The next Recover revokes nc: not before every
									// member is through this round's allreduce.
									<-finished[round]
								}
								comm = nc
							}
							return nil
						}, mode.opt)
					})
					if err != nil {
						t.Fatalf("recovered run should succeed, got %v", err)
					}
					for round, ws := range widths {
						if len(ws) != want(round) {
							t.Fatalf("round %d: %d members finished, want %d: %v", round, len(ws), want(round), ws)
						}
						for r, w := range ws {
							if w != want(round) {
								t.Errorf("round %d: rank %d: Recover returned width %d, want %d", round, r, w, want(round))
							}
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

// TestRecoverGoneAtFailure: where nothing can relaunch a failed rank, the
// coordinator marks it gone at the failure itself, not when its incarnation
// ends. Rank 2's connection to the hub is lost while its run function is
// still blocked, and the survivors' Recover returns width np-1 without
// waiting for that function to return:
//   - supervised: Hub.Supervise with a relaunch budget of 0, as mpirun
//     -recover runs its processes;
//   - unsupervised: a HubRecovery hub nobody supervises, with no formation
//     budget.
func TestRecoverGoneAtFailure(t *testing.T) {
	const np = 4
	for _, supervised := range []bool{true, false} {
		name := "unsupervised"
		if supervised {
			name = "supervised"
		}
		t.Run(name, func(t *testing.T) {
			hub, err := StartHub("127.0.0.1:0", np, HubRecovery())
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			release := make(chan struct{})
			var survived sync.WaitGroup
			survived.Add(np - 1)
			widths := make([]int, np)
			run := func(rank int, _ bool) error {
				if rank == 2 {
					return loseConnection(hub.Addr(), rank, release)
				}
				return JoinTCP(hub.Addr(), rank, np, func(c *Comm) error {
					defer survived.Done()
					nc, err := c.Recover()
					if err != nil {
						return err
					}
					widths[rank] = nc.Size()
					return nc.Barrier()
				}, WithRecovery())
			}
			done := make(chan []error, 1)
			go func() {
				if supervised {
					done <- hub.Supervise(false, run)
					return
				}
				errs := make([]error, np)
				var wg sync.WaitGroup
				for rank := range np {
					wg.Add(1)
					go func() { defer wg.Done(); errs[rank] = run(rank, false) }()
				}
				wg.Wait()
				done <- errs
			}()
			_ = runWithWatchdog(t, 30*time.Second, func() error { survived.Wait(); return nil })
			close(release)
			for rank, err := range <-done {
				if rank == 2 {
					if !errors.Is(err, errDeliberate) {
						t.Errorf("rank 2: got %v, want its own failure", err)
					}
				} else if err != nil || widths[rank] != np-1 {
					t.Errorf("rank %d: Recover returned width %d, err %v; want width %d", rank, widths[rank], err, np-1)
				}
			}
			if err := hub.Wait(); err != nil {
				t.Fatalf("hub: %v", err)
			}
		})
	}
}

// loseConnection is a rank whose connection to the hub is lost once the
// world has formed, while the rank itself (its run function) lives on until
// release.
func loseConnection(addr string, rank int, release <-chan struct{}) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	err = writeHello(conn, hello{Rank: rank})
	if err == nil {
		_, _, err = newWireReader(conn).readFrame() // the start frame
	}
	conn.Close()
	if err != nil {
		return err
	}
	<-release
	return errDeliberate
}
