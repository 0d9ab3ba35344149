package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
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
					nc, serr := c.Recover()
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
					nc, serr := c.Recover()
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
	d, err := c.agree()
	if err != nil {
		return nil, err
	}
	var out []int
	for i, wr := range c.ranks {
		if d.mask.has(wr) {
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
// membership state of a member × whether it has contributed. The first
// member has always contributed; arrived lists the other members that have.
// In the narrow rows rank 1 is the member under test and rank 2 is outside
// the communicator; the wide rows hold members across word boundaries of
// the rank set.
func TestAgreeDecide(t *testing.T) {
	narrow, wide := []int{0, 1}, []int{3, 70, 127}
	cases := []struct {
		name      string
		members   []int
		state     func(m *membership)
		arrived   []int
		keyEpoch  int
		ready     bool
		mask      []int
		firstSays []int // the first member's contribution
	}{
		{"live arrived", narrow, func(*membership) {}, []int{1}, 0, true, nil, nil},
		{"live not arrived", narrow, func(*membership) {}, nil, 0, false, nil, nil},
		{"failed arrived", narrow, func(m *membership) { m.fail(1, 0) }, []int{1}, 0, true, []int{1}, nil},
		{"failed not arrived", narrow, func(m *membership) { m.fail(1, 0) }, nil, 0, true, []int{1}, nil},
		{"departed arrived", narrow, func(m *membership) { m.depart(1) }, []int{1}, 0, true, []int{1}, nil},
		{"departed not arrived", narrow, func(m *membership) { m.depart(1) }, nil, 0, true, []int{1}, nil},
		{"gone not arrived", narrow, func(m *membership) { m.fail(1, 0); m.abandon(1) }, nil, 0, true, []int{1}, nil},
		{"contribution names a failure", narrow, func(*membership) {}, []int{1}, 0, true, []int{1}, []int{1}},
		{"failure outside the communicator", narrow, func(m *membership) { m.fail(2, 0) }, []int{1}, 0, true, nil, nil},
		{"rejoined live arrived", narrow, func(m *membership) { m.fail(1, 0); m.rejoin(1, 1) }, []int{1}, 1, true, nil, nil},
		{"older-epoch key, all arrived", narrow, func(m *membership) { m.rejoin(2, 1) }, []int{1}, 0, false, nil, nil},
		{"older-epoch key, member failed", narrow, func(m *membership) { m.rejoin(2, 1); m.fail(1, 1) }, nil, 0, false, nil, nil},
		{"wide, all arrived", wide, func(*membership) {}, []int{70, 127}, 0, true, nil, nil},
		{"wide, last member not arrived", wide, func(*membership) {}, []int{70}, 0, false, nil, nil},
		{"wide, failed and departed", wide, func(m *membership) { m.fail(70, 0); m.depart(127) }, nil, 0, true, []int{70, 127}, nil},
		{"wide, failure outside", wide, func(m *membership) { m.fail(64, 0); m.fail(128, 0) }, []int{70, 127}, 0, true, nil, nil},
		{"wide, contribution names a failure", wide, func(*membership) {}, []int{70, 127}, 0, true, []int{127}, []int{127}},
	}
	for _, tc := range cases {
		var m membership
		tc.state(&m)
		contributions := map[int]rankSet{tc.members[0]: setOf(tc.firstSays...)}
		for _, r := range tc.arrived {
			contributions[r] = nil
		}
		mask, ready := decide(agreeKey{epoch: tc.keyEpoch}, tc.members, contributions, &m)
		if ready != tc.ready || !slices.Equal(mask.list(), tc.mask) {
			t.Errorf("%s: decide = (%v, %v), want (%v, %v)", tc.name, mask.list(), ready, tc.mask, tc.ready)
		}
	}
}

// TestAgreeRankSetMatchesModel: the rank set against a map model, over ranks
// 0..199 — four words, with each boundary crossed — under a seeded script
// of adds and removes; every step compares has and list, and union, minus
// and and against a second set built the same way, leaving both operands
// unchanged.
func TestAgreeRankSetMatchesModel(t *testing.T) {
	const width = 200
	rng := rand.New(rand.NewSource(1))
	var s, u rankSet
	model, other := map[int]bool{}, map[int]bool{}
	list := func(m map[int]bool) []int {
		out := []int{}
		for r := range width {
			if m[r] {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range []int{63, 64, 127, 128, 199} {
		u.add(r)
		other[r] = true
	}
	for step := range 4000 {
		r := rng.Intn(width)
		if rng.Intn(3) == 0 {
			s.remove(r)
			delete(model, r)
		} else {
			s.add(r)
			model[r] = true
		}
		if step%97 == 0 {
			o := rng.Intn(width)
			u.add(o)
			other[o] = true
		}
		if s.has(r) != model[r] {
			t.Fatalf("step %d: has(%d) = %v, model %v", step, r, s.has(r), model[r])
		}
		want := list(model)
		if got := s.list(); !slices.Equal(got, want) {
			t.Fatalf("step %d: list = %v, model %v", step, got, want)
		}
		if s.empty() != (len(want) == 0) {
			t.Fatalf("step %d: empty = %v with %d ranks", step, s.empty(), len(want))
		}
		union, minus, and := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for r := range width {
			union[r] = model[r] || other[r]
			minus[r] = model[r] && !other[r]
			and[r] = model[r] && other[r]
		}
		for _, op := range []struct {
			name string
			got  rankSet
			want map[int]bool
		}{{"union", s.union(u), union}, {"minus", s.minus(u), minus}, {"and", s.and(u), and}} {
			if !slices.Equal(op.got.list(), list(op.want)) {
				t.Fatalf("step %d: %s = %v, model %v", step, op.name, op.got.list(), list(op.want))
			}
			op.got.add(width) // a result shares no words with its operands
		}
		if !slices.Equal(s.list(), want) || !slices.Equal(u.list(), list(other)) {
			t.Fatalf("step %d: an operation changed its operands", step)
		}
	}
	if got := setOf(3, 70, 127).list(); !slices.Equal(got, []int{3, 70, 127}) {
		t.Fatalf("setOf(3, 70, 127).list() = %v", got)
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
		live := setOf(0, 1, 2).minus(m.failed.union(m.departed))
		if m.epoch != tc.epoch || !slices.Equal(m.failed.list(), tc.failed) || !slices.Equal(m.departed.list(), tc.departed) || !slices.Equal(live.list(), tc.live) {
			t.Errorf("%s: epoch %d failed %v departed %v live %v; want epoch %d failed %v departed %v live %v", tc.name,
				m.epoch, m.failed.list(), m.departed.list(), live.list(), tc.epoch, tc.failed, tc.departed, tc.live)
		}
	}

	// The worker applies notices through the same value: a rejoin at epoch 1,
	// then the hub's notice of the failure it decided at epoch 0.
	w := &World{np: 3}
	w.recov = newRecoveryState(w)
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
	w.recov = newRecoveryState(w)
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
					nc, err := c.Recover()
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

// TestWithRecoveryRankCap: recovery has no rank cap of its own; the shm
// launchers keep the segment's. At np=65 both refuse before anything is
// listened, dialed or mapped: main never runs, and the joiner never finds
// out that nothing listens at its hub address.
func TestWithRecoveryRankCap(t *testing.T) {
	if !shmSupported {
		t.Skip("no shm transport on this platform")
	}
	var ran atomic.Bool
	main := func(c *Comm) error { ran.Store(true); return nil }
	for _, l := range []launcher{{"shm", RunShm}, {"join-shm", func(np int, main func(*Comm) error, opts ...Option) error {
		return JoinShm("127.0.0.1:1", filepath.Join(t.TempDir(), "no-such-segment"), 0, np, main, opts...)
	}}} {
		err := l.run(65, main, WithRecovery())
		if err == nil || !strings.Contains(err.Error(), "shm segment supports 1..64 ranks, got 65") {
			t.Errorf("%s: want the segment's rank-cap error, got %v", l.name, err)
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
									nc, serr := comm.Recover()
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

// contributed reports whether an agreement instance open at c's coordinator
// holds rank's contribution: the in-process world's recoveryState, or hub,
// the hub of a TCP or shm world.
func contributed(c *Comm, hub *Hub, rank int) bool {
	mu, insts := &c.world.recov.mu, c.world.recov.insts
	if hub != nil {
		mu, insts = &hub.mu, hub.agreements
	}
	mu.Lock()
	defer mu.Unlock()
	for _, inst := range insts {
		if _, ok := inst.arrived[rank]; ok {
			return true
		}
	}
	return false
}

// eachRank wraps main so that each rank's error other than errDeliberate is
// kept in errs, by world rank: a recovered run succeeds once any rank does,
// which would hide the others'.
func eachRank(errs []error, main func(c *Comm) error) func(c *Comm) error {
	return func(c *Comm) error {
		err := main(c)
		if !errors.Is(err, errDeliberate) {
			errs[c.Rank()] = err
		}
		return err
	}
}

// spinUntil yields until cond holds, for at most 10 s.
func spinUntil(what string, cond func() bool) error {
	for stop := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(stop) {
			return fmt.Errorf("timed out waiting until %s", what)
		}
	}
	return nil
}

// cousinPair puts world ranks {0, 1} and {2, 3} in pairs that are not
// siblings: each pair is first split off c alone, as the one color of a
// Split of its own, and then split again. Its parents have distinct ids,
// but every member has moved its count past both by then, so the two pairs
// take one id. Other ranks get nil.
func cousinPair(c *Comm) (*Comm, error) {
	me := c.Rank()
	var parent *Comm
	for g := 0; g < 2; g++ {
		color := ColorUndefined
		if me/2 == g {
			color = 0
		}
		p, err := c.Split(color, me)
		if err != nil {
			return nil, err
		}
		if p != nil {
			parent = p
		}
	}
	if parent == nil {
		return nil, nil
	}
	return parent.Split(0, me)
}

// TestRecoverSiblingIsolation: disjoint groups recover apart, whether they
// are siblings of one Split, with distinct ids, or cousins that share one
// (cousinPair). Revoke row: rank 3 fails and rank 2 recovers pair {2, 3};
// pair {0, 1} starts a round trip only once it knows rank 3 failed and has
// seen rank 2's revoke, so only that revoke, had it crossed to the other
// pair, could fail the round trip. Agreement row: rank 4 fails and both
// pairs recover, their contributions reaching the coordinator in the order
// 0, 2, 1, 3. Pair {0, 1}'s decision must not release rank 2, or rank 3
// waits for it forever in an instance of its own; and the two restored
// pairs get distinct ids.
func TestRecoverSiblingIsolation(t *testing.T) {
	var hub *Hub // the coordinator of a TCP or shm world; nil in process
	hubTestHook = func(h *Hub) { hub = h }
	t.Cleanup(func() { hubTestHook = nil })
	sum := func(a, b int) int { return a + b }
	forms := []struct {
		name   string
		pair   func(c *Comm) (*Comm, error)
		shared bool // the pairs hold one id
	}{
		{"", func(c *Comm) (*Comm, error) { return c.Split(c.Rank()/2, c.Rank()) }, false},
		{"cousin-", cousinPair, true},
	}
	// pairIDs checks that the pairs' ids, by world rank, are shared as the
	// form says: the row tests the case it names.
	pairIDs := func(shared bool, ids []int64) error {
		if ids[0] != ids[1] || ids[2] != ids[3] || (ids[0] == ids[2]) != shared {
			return fmt.Errorf("pair ids by rank %v; want one per pair, shared across the pairs: %v", ids[:4], shared)
		}
		return nil
	}
	for _, l := range respawnLaunchers {
		for _, f := range forms {
			l, f := l, f
			t.Run(l.name+"/"+f.name+"revoke", func(t *testing.T) {
				hub = nil
				var split sync.WaitGroup // rank 3 fails once every rank has its pair
				split.Add(4)
				recovered := make(chan struct{})
				var revokedKey ctxKey // pair {2, 3}'s, set before recovered closes
				errs, ids := make([]error, 4), make([]int64, 4)
				err := runWithWatchdog(t, 30*time.Second, func() error {
					return l.run(4, eachRank(errs, func(c *Comm) error {
						me := c.Rank()
						pair, err := f.pair(c)
						split.Done()
						if err != nil {
							return err
						}
						ids[me] = pair.ctx
						switch me {
						case 3:
							split.Wait()
							return errDeliberate
						case 2:
							if _, rerr := c.Recv(3, 9, nil); !errors.Is(rerr, ErrRankFailed) {
								return fmt.Errorf("want ErrRankFailed, got %v", rerr)
							}
							if _, err := pair.Recover(); err != nil {
								return err
							}
							revokedKey = pair.owner
							close(recovered)
							return nil
						}
						if err := spinUntil("rank 3 is known failed", func() bool { return slices.Contains(c.FailedRanks(), 3) }); err != nil {
							return err
						}
						<-recovered
						r := c.world.recov
						if err := spinUntil("rank 2's revoke arrives", func() bool {
							r.mu.Lock()
							defer r.mu.Unlock()
							return r.revoked[revokedKey]
						}); err != nil {
							return err
						}
						if me == 0 {
							return pair.Send(1, 5, 42)
						}
						var got int
						if _, err := pair.Recv(0, 5, &got); err != nil || got != 42 {
							return fmt.Errorf("round trip on the healthy pair: %d, %v", got, err)
						}
						return nil
					}), WithRecovery())
				})
				if err = errors.Join(append(errs, err, pairIDs(f.shared, ids))...); err != nil {
					t.Fatalf("recovered run should succeed, got %v", err)
				}
			})
			t.Run(l.name+"/"+f.name+"agree", func(t *testing.T) {
				hub = nil
				var split sync.WaitGroup // rank 4 fails once every rank has its pair
				split.Add(5)
				oneIn := make(chan struct{}) // rank 1's Recover returned
				errs, ids, restored := make([]error, 5), make([]int64, 5), make([]int64, 5)
				err := runWithWatchdog(t, 30*time.Second, func() error {
					return l.run(5, eachRank(errs, func(c *Comm) error {
						me := c.Rank()
						pair, err := f.pair(c)
						split.Done()
						if err != nil {
							return err
						}
						if me == 4 {
							split.Wait()
							return errDeliberate
						}
						ids[me] = pair.ctx
						if _, rerr := c.Recv(4, 9, nil); !errors.Is(rerr, ErrRankFailed) {
							return fmt.Errorf("want ErrRankFailed, got %v", rerr)
						}
						after := map[int]int{2: 0, 1: 2} // whose contribution each rank waits to see open
						if prev, ok := after[me]; ok {
							if err := spinUntil(fmt.Sprintf("rank %d's contribution is open", prev), func() bool { return contributed(c, hub, prev) }); err != nil {
								return err
							}
						}
						if me == 3 {
							<-oneIn
						}
						nc, err := pair.Recover()
						if me == 1 {
							close(oneIn)
						}
						if err != nil {
							return err
						}
						if got, err := Allreduce(nc, 1, sum); err != nil || got != 2 {
							return fmt.Errorf("allreduce over the recovered pair = %d, %v; want 2", got, err)
						}
						restored[me] = nc.ctx
						return nil
					}), WithRecovery())
				})
				if err = errors.Join(append(errs, err, pairIDs(f.shared, ids))...); err != nil {
					t.Fatalf("recovered run should succeed, got %v", err)
				}
				if restored[0] != restored[1] || restored[2] != restored[3] || restored[0] == restored[2] {
					t.Errorf("restored context ids by rank %v: want one per pair, distinct", restored[:4])
				}
			})
		}
	}
}

// TestRecoverSixtyTwoLosses: a world loses all but two of its ranks one at
// a time, from the top, and the survivors recover after each loss: no count
// of restores runs out (62 at np=64). Past np=64 the first losses are ranks
// a 64-bit set could not name.
func TestRecoverSixtyTwoLosses(t *testing.T) {
	sum := func(a, b int) int { return a + b }
	for _, tc := range []struct {
		l  launcher
		np int
	}{
		{launcher{"local", Run}, 64},
		{launcher{"local", Run}, 65},
		{launcher{"local", Run}, 128},
		{launcher{"tcp", RunTCP}, 65},
	} {
		t.Run(fmt.Sprintf("%s/np%d", tc.l.name, tc.np), func(t *testing.T) {
			errs := make([]error, tc.np)
			err := runWithWatchdog(t, 60*time.Second, func() error {
				return tc.l.run(tc.np, eachRank(errs, func(c *Comm) error {
					comm := c
					for round := 0; round < tc.np-2; round++ {
						last := comm.Size() - 1
						if comm.Rank() == last {
							return errDeliberate
						}
						if _, rerr := comm.Recv(last, 9, nil); !errors.Is(rerr, ErrRankFailed) {
							return fmt.Errorf("round %d: want ErrRankFailed, got %v", round, rerr)
						}
						nc, err := comm.Recover()
						if err != nil {
							return fmt.Errorf("round %d: %w", round, err)
						}
						comm = nc
					}
					if got, err := Allreduce(comm, 1, sum); err != nil || got != 2 {
						return fmt.Errorf("allreduce over the last two ranks = %d, %v; want 2", got, err)
					}
					return nil
				}), WithRecovery())
			})
			if err = errors.Join(append(errs, err)...); err != nil {
				t.Fatal(err)
			}
		})
	}
}
