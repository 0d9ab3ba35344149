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
					if rerr := c.revoke(); rerr != nil {
						return rerr
					}
					nc, serr := c.shrink()
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
					if rerr := c.revoke(); rerr != nil {
						return rerr
					}
					nc, serr := c.shrink()
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

// agreedOut runs c's next agreement and returns the communicator-local
// ranks it decided are out, in order.
func agreedOut(c *Comm) ([]int, error) {
	mask, _, err := c.agree()
	if err != nil {
		return nil, err
	}
	var out []int
	for i, wr := range c.ranks {
		if mask&(1<<uint(wr)) != 0 {
			out = append(out, i)
		}
	}
	return out, nil
}

// TestAgreeConsistentUnderRacingFailures: two ranks die at different times,
// one of them mid-protocol, and every survivor's agreement must return the
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
						return errDeliberate // dies while the others wait in agree
					}
					failed, err := agreedOut(c)
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

// TestAgreeDecide: the one agreement rule both coordinators run, over every
// membership state of a member × whether it has contributed. Rank 0 has
// always contributed; rank 1 is the member under test; rank 2 is outside the
// communicator.
func TestAgreeDecide(t *testing.T) {
	members := []int{0, 1}
	cases := []struct {
		name      string
		state     func(m *membership)
		arrived   bool
		keyEpoch  int
		ready     bool
		mask      uint64
		rank0Says uint64 // rank 0's contribution
	}{
		{"live arrived", func(*membership) {}, true, 0, true, 0, 0},
		{"live not arrived", func(*membership) {}, false, 0, false, 0, 0},
		{"failed arrived", func(m *membership) { m.fail(1, 0) }, true, 0, true, 0b10, 0},
		{"failed not arrived", func(m *membership) { m.fail(1, 0) }, false, 0, true, 0b10, 0},
		{"departed arrived", func(m *membership) { m.depart(1) }, true, 0, true, 0b10, 0},
		{"departed not arrived", func(m *membership) { m.depart(1) }, false, 0, true, 0b10, 0},
		{"gone not arrived", func(m *membership) { m.fail(1, 0); m.abandon(1) }, false, 0, true, 0b10, 0},
		{"contribution names a failure", func(*membership) {}, true, 0, true, 0b10, 0b10},
		{"failure outside the communicator", func(m *membership) { m.fail(2, 0) }, true, 0, true, 0, 0},
		{"rejoined live arrived", func(m *membership) { m.fail(1, 0); m.rejoin(1, 1) }, true, 1, true, 0, 0},
		{"older-epoch key, all arrived", func(m *membership) { m.rejoin(2, 1) }, true, 0, false, 0, 0},
		{"older-epoch key, member failed", func(m *membership) { m.rejoin(2, 1); m.fail(1, 1) }, false, 0, false, 0, 0},
	}
	for _, tc := range cases {
		var m membership
		tc.state(&m)
		contributions := map[int]uint64{0: tc.rank0Says}
		if tc.arrived {
			contributions[1] = 0
		}
		mask, ready := decide(agreeKey{epoch: tc.keyEpoch}, members, contributions, &m)
		if ready != tc.ready || mask != tc.mask {
			t.Errorf("%s: decide = (%#b, %v), want (%#b, %v)", tc.name, mask, ready, tc.mask, tc.ready)
		}
	}
}

// TestAgreeMembershipTransitions: every transition of the membership value,
// including the raced failure notice — the hub records a rank failed at
// epoch E, a respawn re-admits it at E+1, and a worker that receives the
// rejoin before the failure notice must drop the notice instead of holding a
// live rank failed in the restored world.
func TestAgreeMembershipTransitions(t *testing.T) {
	type step struct {
		op           string // "fail", "depart", "rejoin", "abandon"
		rank, epoch  int
		wantsChanged bool
	}
	cases := []struct {
		name                   string
		steps                  []step
		epoch                  int
		failed, departed, live []int
	}{
		{"fail once", []step{{"fail", 1, 0, true}, {"fail", 1, 0, false}}, 0, []int{1}, nil, []int{0, 2}},
		{"depart is final", []step{{"depart", 1, 0, true}, {"fail", 1, 0, false}, {"depart", 1, 0, false}}, 0, nil, []int{1}, []int{0, 2}},
		{"failed stays failed at done", []step{{"fail", 1, 0, true}, {"depart", 1, 0, false}}, 0, []int{1}, nil, []int{0, 2}},
		{"fail then rejoin", []step{{"fail", 1, 0, true}, {"rejoin", 1, 1, true}}, 1, nil, nil, []int{0, 1, 2}},
		{"stale notice after rejoin", []step{{"rejoin", 1, 1, true}, {"fail", 1, 0, false}}, 1, nil, nil, []int{0, 1, 2}},
		{"new failure after rejoin", []step{{"fail", 1, 0, true}, {"rejoin", 1, 1, true}, {"fail", 1, 1, true}}, 1, []int{1}, nil, []int{0, 2}},
		{"other rank's old notice still counts", []step{{"rejoin", 1, 1, true}, {"fail", 2, 0, true}}, 1, []int{2}, nil, []int{0, 1}},
		{"rejoin already applied", []step{{"fail", 1, 0, true}, {"rejoin", 2, 1, true}, {"rejoin", 1, 1, false}}, 1, []int{1}, nil, []int{0, 2}},
		{"only a failed rank is abandoned", []step{{"abandon", 1, 0, false}, {"depart", 2, 0, true}, {"abandon", 2, 0, false}}, 0, nil, []int{2}, []int{0, 1}},
		{"gone refuses rejoin", []step{{"fail", 1, 0, true}, {"abandon", 1, 0, true}, {"abandon", 1, 0, false}, {"rejoin", 1, 1, false}}, 0, []int{1}, nil, []int{0, 2}},
	}
	for _, tc := range cases {
		var m membership
		for i, s := range tc.steps {
			var changed bool
			switch s.op {
			case "fail":
				changed = m.fail(s.rank, s.epoch)
			case "depart":
				changed = m.depart(s.rank)
			case "rejoin":
				changed = m.rejoin(s.rank, s.epoch)
			case "abandon":
				changed = m.abandon(s.rank)
			}
			if changed != s.wantsChanged {
				t.Errorf("%s: step %d %s(%d, %d) changed = %v, want %v", tc.name, i, s.op, s.rank, s.epoch, changed, s.wantsChanged)
			}
		}
		live := ^(m.failed | m.departed) & 0b111
		if m.epoch != tc.epoch || m.failed != rankMask(tc.failed) || m.departed != rankMask(tc.departed) || live != rankMask(tc.live) {
			t.Errorf("%s: epoch %d failed %v departed %v live %v; want epoch %d failed %v departed %v live %v", tc.name,
				m.epoch, maskRanks(m.failed), maskRanks(m.departed), maskRanks(live), tc.epoch, tc.failed, tc.departed, tc.live)
		}
	}

	// The worker applies notices through the same value: a rejoin at epoch 1,
	// then the hub's notice of the failure it decided at epoch 0.
	w := &World{np: 3}
	w.recov = newRecoveryState(w, false)
	w.recov.ctrlSend = func(frame) error { return nil }
	w.rankRejoined(1, 1)
	w.rankFailed(1, 0, errDeliberate)
	if got := w.comm(0).FailedRanks(); len(got) != 0 {
		t.Fatalf("worker holds rank(s) %v failed after a stale notice", got)
	}
}

// TestAgreeRejoinFailsOnlyOlderEpochs: a rejoin to epoch E fails the
// agreement a member entered at epoch E-1 — its member list describes the old
// world — and never one entered at E, which is the instance the restored
// world decides. Failing the new-epoch waiter too strands its member: the
// hub decides that instance for everyone else, and the retry opens a fresh
// one nobody else joins.
func TestAgreeRejoinFailsOnlyOlderEpochs(t *testing.T) {
	w := &World{np: 3}
	w.recov = newRecoveryState(w, false)
	reqs := make(chan []byte, 2)
	w.recov.ctrlSend = func(f frame) error { reqs <- f.Data; return nil }
	w.rankRejoined(2, 1) // the world is at epoch 1

	type outcome struct {
		failed []int
		err    error
	}
	agree := func(epoch int) (<-chan outcome, []byte) {
		out := make(chan outcome, 1)
		go func() {
			failed, err := agreedOut(w.epochComm(w.comm(0), epoch))
			out <- outcome{failed, err}
		}()
		return out, <-reqs // the contribution is on its way to the hub
	}
	old, _ := agree(1)
	cur, curReq := agree(2)
	w.rankRejoined(2, 2)

	if o := <-old; !errors.Is(o.err, ErrRankFailed) {
		t.Fatalf("epoch-1 agreement across the rejoin to epoch 2: got %v, %v; want the membership-changed error", o.failed, o.err)
	}
	// The hub decides the epoch-2 instance: echo the contribution back as
	// its decision (gob matches the fields by name).
	var resp agreeResp
	if err := decodeValue(curReq, &resp); err != nil {
		t.Fatal(err)
	}
	w.recov.deliverDecision(resp)
	if o := <-cur; o.err != nil || len(o.failed) != 0 {
		t.Fatalf("epoch-2 agreement: got %v, %v; want the hub's empty decision", o.failed, o.err)
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
						if err := c.revoke(); err != nil {
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
						if err := c.revoke(); err != nil { // idempotent
							return err
						}
					}
					nc, err := c.shrink()
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
		return JoinTCP(nobody, 0, np, main, opts...)
	}}}, recoveryLaunchers...)
	if shmSupported {
		launchers = append(launchers, launcher{"join-shm", func(np int, main func(*Comm) error, opts ...Option) error {
			return JoinShm(nobody, filepath.Join(t.TempDir(), "no-such-segment"), 0, np, main, opts...)
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
									if rerr := comm.revoke(); rerr != nil {
										return rerr
									}
									nc, serr := comm.shrink()
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
