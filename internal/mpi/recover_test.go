package mpi

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// launcher abstracts Run vs RunTCP vs RunShm so every recovery scenario is
// exercised on the in-process, network, and shared-memory transports.
type launcher struct {
	name string
	run  func(np int, main func(c *Comm) error, opts ...Option) error
}

var recoveryLaunchers = func() []launcher {
	ls := []launcher{
		{"local", Run},
		{"tcp", RunTCP},
	}
	if shmSupported {
		ls = append(ls, launcher{"shm", RunShm})
	}
	return ls
}()

// TestRecoverContinuesAfterRankFailure: one rank dies; the survivors observe
// a retryable *RankFailedError on a receive naming the failed source, shrink
// to a dense 3-rank communicator, and keep computing (barrier + p2p ring).
// The launcher reports overall success: the world recovered.
func TestRecoverContinuesAfterRankFailure(t *testing.T) {
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			sizes := map[int]int{}
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(4, func(c *Comm) error {
					if c.Rank() == 3 {
						return errDeliberate
					}
					_, rerr := c.Recv(3, 7, nil) // named failed source: deterministic interrupt
					if !errors.Is(rerr, ErrRankFailed) {
						return fmt.Errorf("want ErrRankFailed from Recv on failed source, got %v", rerr)
					}
					if rerr := c.Revoke(); rerr != nil {
						return rerr
					}
					nc, serr := c.Shrink()
					if serr != nil {
						return serr
					}
					if nc.Rank() != c.Rank() {
						return fmt.Errorf("survivor order: old rank %d became %d", c.Rank(), nc.Rank())
					}
					if err := nc.Barrier(); err != nil {
						return err
					}
					right := (nc.Rank() + 1) % nc.Size()
					left := (nc.Rank() - 1 + nc.Size()) % nc.Size()
					if err := nc.Send(right, 1, nc.Rank()); err != nil {
						return err
					}
					var got int
					if _, err := nc.Recv(left, 1, &got); err != nil {
						return err
					}
					if got != left {
						return fmt.Errorf("ring on shrunken comm: got %d want %d", got, left)
					}
					mu.Lock()
					sizes[c.Rank()] = nc.Size()
					mu.Unlock()
					return nil
				}, WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
			if len(sizes) != 3 {
				t.Fatalf("expected 3 survivors, got %v", sizes)
			}
			for r, s := range sizes {
				if s != 3 {
					t.Errorf("rank %d saw shrunken size %d, want 3", r, s)
				}
			}
		})
	}
}

// TestRecoverInterruptsPendingAnySource: survivors are already blocked in a
// wildcard receive when the failure lands; the failure must interrupt the
// pending operation even though live peers remain that could still send.
func TestRecoverInterruptsPendingAnySource(t *testing.T) {
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(4, func(c *Comm) error {
					if c.Rank() == 3 {
						time.Sleep(200 * time.Millisecond) // let the peers block first
						return errDeliberate
					}
					_, rerr := c.Recv(AnySource, 7, nil)
					if !errors.Is(rerr, ErrRankFailed) {
						return fmt.Errorf("want ErrRankFailed interrupting pending wildcard Recv, got %v", rerr)
					}
					if rerr := c.Revoke(); rerr != nil {
						return rerr
					}
					nc, serr := c.Shrink()
					if serr != nil {
						return serr
					}
					return nc.Barrier()
				}, WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
		})
	}
}

// TestAgreeConsistentUnderRacingFailures: two ranks die at different times,
// one of them mid-protocol, and every survivor's Agree must return the
// identical failed set — the failures are folded into the decision instead
// of stalling it.
func TestAgreeConsistentUnderRacingFailures(t *testing.T) {
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			agreed := map[int][]int{}
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(6, func(c *Comm) error {
					switch c.Rank() {
					case 5:
						return errDeliberate // dies before anyone agrees
					case 4:
						time.Sleep(80 * time.Millisecond)
						return errDeliberate // dies while the others wait in Agree
					}
					failed, err := c.Agree()
					if err != nil {
						return err
					}
					mu.Lock()
					agreed[c.Rank()] = failed
					mu.Unlock()
					return nil
				}, WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
			want := []int{4, 5}
			for r, got := range agreed {
				if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Errorf("rank %d agreed on %v, want %v", r, got, want)
				}
			}
			if len(agreed) != 4 {
				t.Fatalf("expected 4 survivors to agree, got %d", len(agreed))
			}
		})
	}
}

// TestRevokeKicksStragglerOutOfOldComm: a straggler that computed straight
// through the failure blocks on a receive from a live peer — the failed-set
// checks alone would never interrupt it. The survivor that detected the
// failure revokes the communicator, which must surface on the straggler as
// a *RankFailedError with Revoked set.
func TestRevokeKicksStragglerOutOfOldComm(t *testing.T) {
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(3, func(c *Comm) error {
					switch c.Rank() {
					case 2:
						time.Sleep(30 * time.Millisecond)
						return errDeliberate
					case 0:
						_, rerr := c.Recv(2, 9, nil)
						if !errors.Is(rerr, ErrRankFailed) {
							return fmt.Errorf("rank 0: want ErrRankFailed, got %v", rerr)
						}
						if err := c.Revoke(); err != nil {
							return err
						}
					case 1:
						// Heads-down compute through failure and revoke, then
						// block on a live peer that will never send on this comm.
						time.Sleep(300 * time.Millisecond)
						_, rerr := c.Recv(0, 9, nil)
						var rfe *RankFailedError
						if !errors.As(rerr, &rfe) {
							return fmt.Errorf("straggler: want *RankFailedError, got %v", rerr)
						}
						if !rfe.Revoked {
							return fmt.Errorf("straggler: expected Revoked error, got %v", rfe)
						}
						if err := c.Revoke(); err != nil { // idempotent
							return err
						}
					}
					nc, err := c.Shrink()
					if err != nil {
						return err
					}
					if nc.Size() != 2 {
						return fmt.Errorf("shrunken size %d, want 2", nc.Size())
					}
					return nc.Barrier()
				}, WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
		})
	}
}

// TestRecoverSendSemantics: after a failure, sends into the failed rank are
// rejected with a retryable error, while survivor-to-survivor traffic on the
// same (unrevoked) communicator keeps flowing.
func TestRecoverSendSemantics(t *testing.T) {
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			err := runWithWatchdog(t, 30*time.Second, func() error {
				return l.run(3, func(c *Comm) error {
					switch c.Rank() {
					case 1:
						return errDeliberate
					case 0:
						// Sends may land in the dead rank's mailbox until the
						// failure registers; eventually they must be rejected.
						for i := 0; ; i++ {
							err := c.Send(1, 1, i)
							if errors.Is(err, ErrRankFailed) {
								break
							}
							if err != nil {
								return fmt.Errorf("send to failed rank: got %v", err)
							}
							time.Sleep(time.Millisecond)
						}
						if err := c.Send(2, 2, 42); err != nil {
							return fmt.Errorf("survivor-to-survivor send after failure: %v", err)
						}
					case 2:
						for {
							var v int
							_, err := c.Recv(0, 2, &v)
							if err == nil {
								if v != 42 {
									return fmt.Errorf("got %d want 42", v)
								}
								break
							}
							if !errors.Is(err, ErrRankFailed) {
								return err
							}
							// Interrupted by the failure: the operation is
							// retryable, and the retry must succeed.
						}
					}
					return nil
				}, WithRecovery())
			})
			if err != nil {
				t.Fatalf("recovered run should report success, got %v", err)
			}
		})
	}
}

// TestWithRecoveryInertOnCleanRuns: a recovery world with no failures runs
// collectives, splits, and p2p exactly as a plain world does.
func TestWithRecoveryInertOnCleanRuns(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		sum, err := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		if sum != 6 {
			return fmt.Errorf("allreduce got %d want 6", sum)
		}
		half, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if half.Size() != 2 {
			return fmt.Errorf("split size %d want 2", half.Size())
		}
		if failed := c.FailedRanks(); len(failed) != 0 {
			return fmt.Errorf("clean world reports failed ranks %v", failed)
		}
		return c.Barrier()
	}, WithRecovery())
	if err != nil {
		t.Fatalf("clean recovery run: %v", err)
	}
}

// TestWithRecoveryRankCap: the agreement bitmask bounds recovery worlds.
func TestWithRecoveryRankCap(t *testing.T) {
	// Every launcher refuses the 65th rank with the one sentinel, before it
	// has listened, dialed or mapped anything: main never runs, and the
	// joiners never find out that nothing listens at their hub address.
	var ran atomic.Bool
	main := func(c *Comm) error { ran.Store(true); return nil }
	const nobody = "127.0.0.1:1"
	launchers := append([]launcher{{"join-tcp", func(np int, main func(*Comm) error, opts ...Option) error {
		return JoinTCP(nobody, 0, np, main, append(opts, WithDialRetry(-1))...)
	}}}, recoveryLaunchers...)
	if shmSupported {
		launchers = append(launchers, launcher{"join-shm", func(np int, main func(*Comm) error, opts ...Option) error {
			return JoinShm(nobody, filepath.Join(t.TempDir(), "no-such-segment"), 0, np, main, append(opts, WithDialRetry(-1))...)
		}})
	}
	for _, l := range launchers {
		err := l.run(65, main, WithRecovery())
		if !errors.Is(err, errRecoveryRankCap) || !strings.Contains(err.Error(), "at most 64") {
			t.Errorf("%s: want the rank-cap error, got %v", l.name, err)
		}
	}
	if ran.Load() {
		t.Error("main ran in a world that was refused")
	}
}

// TestWithRecoveryDeadlineStillAborts: recovery does not defang the
// deadline machinery — a genuine deadlock still revokes the world, and the
// error still composes with context.DeadlineExceeded.
func TestWithRecoveryDeadlineStillAborts(t *testing.T) {
	err := runWithWatchdog(t, 30*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			_, err := c.Recv(1-c.Rank(), 5, nil) // mutual Recv: classic deadlock
			return err
		}, WithRecovery(), WithDeadline(100*time.Millisecond))
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestRecoverySoakKillRank is the randomized recovery soak: seeded kill-rank
// plans against a collective workload on both transports. Every trial must
// recover — survivors revoke, shrink, restart their loop — and report
// overall success. Runs under -race in scripts/check.sh.
func TestRecoverySoakKillRank(t *testing.T) {
	const np = 5
	sum := func(a, b int) int { return a + b }
	for _, l := range recoveryLaunchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				trial := trial
				t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
					rules := []FaultRule{{
						Src: trial % np, Dst: AnySource, Tag: AnyTag,
						SkipFirst: trial * 3 % 16,
						Action:    FaultKillRank,
					}}
					if trial%2 == 0 {
						// A second, later failure racing the recovered world.
						rules = append(rules, FaultRule{
							Src: (trial + 2) % np, Dst: AnySource, Tag: AnyTag,
							SkipFirst: 18 + trial,
							Action:    FaultKillRank,
						})
					}
					plan := FaultPlan{Seed: int64(trial + 1), Rules: rules}
					err := runWithWatchdog(t, 60*time.Second, func() error {
						return l.run(np, func(c *Comm) error {
							comm := c
							iters := 0
							for iters < 40 {
								got, err := Allreduce(comm, 1, sum)
								if err != nil {
									if !errors.Is(err, ErrRankFailed) {
										return err // this rank was killed (or a real bug)
									}
									if rerr := comm.Revoke(); rerr != nil {
										return rerr
									}
									nc, serr := comm.Shrink()
									if serr != nil {
										return serr
									}
									comm = nc
									iters = 0 // restart on the shrunken world
									continue
								}
								if got != comm.Size() {
									return fmt.Errorf("allreduce got %d want %d", got, comm.Size())
								}
								iters++
							}
							return nil
						}, WithRecovery(), WithFaults(plan))
					})
					if err != nil {
						t.Fatalf("trial %d should recover, got %v", trial, err)
					}
				})
			}
		})
	}
}
