package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// The exchange step (Comm.exchange): the receive is posted before the send,
// the outgoing block is lent, and whatever the way out the lender has its
// slice back. All of it pinned without a clock: orders are forced by watching
// the mailboxes' queues.

// queued returns a copy of m's unexpected queue.
func queued(m *mailbox) []frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.unexp[m.head:])
}

// waitQueued spins until n frames wait in m's unexpected queue.
func waitQueued(m *mailbox, n int) error {
	for stop := time.Now().Add(10 * time.Second); len(queued(m)) != n; runtime.Gosched() {
		if time.Now().After(stop) {
			return fmt.Errorf("unexpected queue holds %d frames, want %d", len(queued(m)), n)
		}
	}
	return nil
}

// TestFrameSizeUnchanged: the third ownership flag lives in the padding the
// first two left; a frame is copied by value at every hand-over.
func TestFrameSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got != 96 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("frame is %d bytes, want the 96 it was before frame.lent", got)
	}
}

// ownedExchange runs two Sendrecv steps between the two ranks of a world, one
// receive variable on each side. Rank first enters each step at once; the
// other enters once first's block waits in its queue, so first's block is
// taken off the queue — on the local transport still lent — and the other's
// goes straight to first's posted receive. Each rank overwrites its block the
// moment its step returns and writes into what it received while the other
// does the same: it must read the values from before, in storage of its own
// (the -race run is that assertion). discard receives into nil.
func ownedExchange[S, R comparable](c *Comm, first, tag int, discard bool, s func(int) S, r func(int) R) error {
	peer := 1 - c.Rank()
	var got []R
	for _, base := range []int{10, 20} {
		mine, theirs := base+100*c.Rank(), base+100*peer
		buf := []S{s(mine), s(mine + 1), s(mine + 2)}
		if c.Rank() != first {
			if err := waitQueued(c.mailbox(), 1); err != nil {
				return err
			}
		}
		var dst any
		if !discard {
			dst = &got
		}
		st, err := c.Sendrecv(peer, tag, buf, peer, tag, dst)
		for i := range buf {
			buf[i] = s(-1)
		}
		if err != nil {
			return err
		}
		if st.Source != peer || st.Tag != tag || st.Bytes <= 0 {
			return fmt.Errorf("%T: status %v", buf, st)
		}
		want := []R{r(theirs), r(theirs + 1), r(theirs + 2)}
		if !discard && !slices.Equal(got, want) {
			return fmt.Errorf("%T into %T: received %v, want %v (the lender's write after its step must not show)", buf, dst, got, want)
		}
		if !discard {
			got[1] = r(-1)
		}
		if err := c.Barrier(); err != nil { // both queues are empty again
			return err
		}
	}
	return nil
}

// TestExchangeHandsItsBlockBack extends the ownership rule of Send
// (TestCopyOnSendDecouplesSenderBuffer) to the exchange step, on every
// transport, with either rank arriving first, for every slice kind that
// travels borrowed, a receive of another element type and a nil destination.
func TestExchangeHandsItsBlockBack(t *testing.T) {
	modes := []parityMode{
		{name: "local", run: Run},
		{name: "local-latency", run: Run, opts: []Option{WithTopology([]int{0, 1}), WithNetwork(20*time.Microsecond, 0)}},
		{name: "tcp", run: RunTCP},
	}
	if shmSupported {
		modes = append(modes, parityMode{name: "shm", run: RunShm})
	}
	num := func(i int) int { return i }
	for _, mode := range modes {
		for first := 0; first < 2; first++ {
			mode, first := mode, first
			t.Run(fmt.Sprintf("%s/rank-%d-first", mode.name, first), func(t *testing.T) {
				err := mode.run(2, func(c *Comm) error {
					f64 := func(i int) float64 { return float64(i) / 2 }
					f32 := func(i int) float32 { return float32(i) / 2 }
					i64 := func(i int) int64 { return int64(i) << 33 }
					i32 := func(i int) int32 { return int32(i) }
					u8 := func(i int) byte { return byte(i) }
					even := func(i int) bool { return i >= 0 && i%2 == 0 }
					str := func(i int) string { return fmt.Sprint("s", i) }
					wide := func(i int) int64 { return int64(i) }
					for _, step := range []func() error{
						func() error { return ownedExchange(c, first, 0, false, f64, f64) },
						func() error { return ownedExchange(c, first, 1, false, num, num) },
						func() error { return ownedExchange(c, first, 2, false, u8, u8) },
						func() error { return ownedExchange(c, first, 3, false, i64, i64) },
						func() error { return ownedExchange(c, first, 4, false, i32, i32) },
						func() error { return ownedExchange(c, first, 5, false, f32, f32) },
						func() error { return ownedExchange(c, first, 6, false, even, even) },
						func() error { return ownedExchange(c, first, 7, false, str, str) },
						func() error { return ownedExchange(c, first, 8, false, num, wide) }, // []int into *[]int64: gob's widening
						func() error { return ownedExchange(c, first, 9, true, f64, f64) },
					} {
						if err := step(); err != nil {
							return err
						}
					}
					return nil
				}, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// lateRing is a three-rank ring step in which rank 1 stays away: rank 0 lends
// its block to rank 1's queue and waits for rank 2, which does what rank2 says.
// It returns rank 0's error from the step, and the block as rank 1 finds it
// after rank 0 — its step over — has overwritten its slice: in the queue
// (queued) and, where the world still lets it receive, through a wildcard
// Recv (received, else nil).
func lateRing(t *testing.T, rank2 func(c *Comm) error, opts ...Option) (stepErr error, inQueue frame, received []float64, runErr error) {
	t.Helper()
	lent, stepOver := make(chan struct{}), make(chan struct{})
	runErr = runWithWatchdog(t, 30*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				block, got := []float64{1.5, 2.5, 3.5}, []float64(nil)
				_, stepErr = c.Sendrecv(1, 5, block, 2, 5, &got)
				for i := range block {
					block[i] = -1
				}
				if q := queued(c.world.boxes[1]); len(q) == 1 {
					inQueue = q[0]
				}
				close(stepOver)
				if stepErr == nil && !slices.Equal(got, []float64{7}) {
					return fmt.Errorf("rank 0 received %v from rank 2", got)
				}
			case 1:
				<-stepOver
				if _, err := c.Recv(AnySource, AnyTag, &received); err != nil {
					received = nil
				}
			case 2:
				if err := waitQueued(c.world.boxes[1], 1); err != nil {
					return err
				}
				close(lent)
				return rank2(c)
			}
			return nil
		}, opts...)
	})
	<-lent
	return
}

// TestExchangeLoanOutlivedByItsStep: the lender's step ends — in success, by
// world abort, by deadline, by a peer's failure under WithRecovery — while its
// block still waits, lent, in the queue of a rank that has not come. When the
// step returns the block there is a private copy: the lender scribbles on its
// slice and the late rank still reads the original.
func TestExchangeLoanOutlivedByItsStep(t *testing.T) {
	want := []float64{1.5, 2.5, 3.5}
	wait := func(c *Comm) error { // rank 2 sends nothing and leaves when rank 0's step is over
		_, err := c.Recv(0, 99, nil)
		return err
	}
	for _, tc := range []struct {
		name    string
		rank2   func(c *Comm) error
		opts    []Option
		stepErr error
		receive bool // the world survives, so rank 1 can still receive
	}{
		{name: "success", rank2: func(c *Comm) error { return c.Send(0, 5, []float64{7}) }, receive: true},
		{name: "abort", rank2: func(c *Comm) error { return errDeliberate }, stepErr: ErrWorldAborted},
		{name: "deadline", rank2: wait, opts: []Option{WithDeadline(30 * time.Millisecond)}, stepErr: ErrDeadlineExceeded},
		{name: "rank-failed", rank2: func(c *Comm) error { return errDeliberate }, opts: []Option{WithRecovery()}, stepErr: ErrRankFailed, receive: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stepErr, inQueue, received, _ := lateRing(t, tc.rank2, tc.opts...)
			if !errors.Is(stepErr, tc.stepErr) {
				t.Fatalf("rank 0's step returned %v, want %v", stepErr, tc.stepErr)
			}
			if val, _ := inQueue.Val.([]float64); inQueue.borrowed || inQueue.lent || !slices.Equal(val, want) {
				t.Errorf("after the step the queued frame has borrowed=%v lent=%v payload %v, want a private copy of %v",
					inQueue.borrowed, inQueue.lent, inQueue.Val, want)
			}
			if tc.receive && !slices.Equal(received, want) {
				t.Errorf("the late rank received %v, want %v", received, want)
			}
		})
	}
}

// TestExchangeDuplicatedLoan: FaultDuplicate sends a lent frame twice; recalled
// together, the two are private copies of the block and of each other.
func TestExchangeDuplicatedLoan(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{{Src: 0, Dst: 1, Tag: 3, Count: 1, Action: FaultDuplicate}}}
	stepOver := make(chan struct{})
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				block := []int{1, 2, 3}
				_, err := c.Sendrecv(1, 3, block, 1, 4, nil)
				block[0] = -1
				close(stepOver)
				return err
			}
			if err := c.Send(0, 4, 0); err != nil {
				return err
			}
			<-stepOver
			var first, second []int
			if _, err := c.Recv(0, 3, &first); err != nil {
				return err
			}
			first[1] = 99
			if _, err := c.Recv(0, 3, &second); err != nil {
				return err
			}
			if !slices.Equal(first, []int{1, 99, 3}) || !slices.Equal(second, []int{1, 2, 3}) {
				return fmt.Errorf("the duplicated block reads %v and %v", first, second)
			}
			return nil
		}, WithFaults(plan))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeSendErrorWithdrawsTheReceive: a step whose send fails leaves no
// receive posted behind it and no loan: the next receive on the same (source,
// tag) is the one that gets the message.
func TestExchangeSendErrorWithdrawsTheReceive(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{{Src: 0, Dst: 1, Tag: 3, Count: 1, Action: FaultKillRank}}}
	stepOver := make(chan struct{})
	err := runWithWatchdog(t, 10*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				<-stepOver
				return nil
			}
			defer close(stepOver)
			_, err := c.Sendrecv(1, 3, []int{1}, 1, 4, nil)
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("Sendrecv = %v, want ErrRankKilled", err)
			}
			if n := postedLen(c.mailbox()); n != 0 {
				return fmt.Errorf("%d receives still posted after the failed step", n)
			}
			if n := len(queued(c.world.boxes[1])); n != 0 {
				return fmt.Errorf("%d frames queued at the peer after the failed step", n)
			}
			return err
		}, WithFaults(plan))
	})
	if !errors.Is(err, ErrRankKilled) {
		t.Fatal(err)
	}
}

// exchangeBytes reports what one call of the step that prepare returns
// allocates per rank once warm, in bytes and in heap objects: the least of
// three batches, as TestLocalRoundTripAllocations takes it.
func exchangeBytes(t *testing.T, np int, prepare func(c *Comm) func() error) (bytes uint64, objects float64) {
	t.Helper()
	const calls = 50
	perRank := make([][2]uint64, np)
	err := Run(np, func(c *Comm) error {
		step, best := prepare(c), [2]uint64{math.MaxUint64, math.MaxUint64}
		for batch := 0; batch < 4; batch++ { // the first warms up
			if err := c.Barrier(); err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			if batch > 0 {
				best[0] = min(best[0], (after.TotalAlloc-before.TotalAlloc)/calls)
				best[1] = min(best[1], after.Mallocs-before.Mallocs)
			}
		}
		perRank[c.Rank()] = best
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// MemStats are the process's: a rank's batch counts every rank's calls.
	for _, b := range perRank {
		bytes, objects = max(bytes, b[0]), max(objects, float64(b[1]))
	}
	return bytes / uint64(np), objects / calls / float64(np)
}

// TestExchangeStepsAllocateNoBlock: a steady-state AlltoallvInto of 10 000
// float64 per peer at np = 2, a doubling allgather of 64 KiB at np = 4 and a
// Sendrecv of 64 KiB each allocate under 1 KiB per call per rank: no private
// copy of a block, whichever rank arrives first. (An AlltoallvInto cost 78 KiB
// and more before the exchange step lent its block.)
func TestExchangeStepsAllocateNoBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const per = 10000
	for _, tc := range []struct {
		name    string
		np      int
		prepare func(c *Comm) func() error
	}{
		{"AlltoallvInto", 2, func(c *Comm) func() error {
			counts, send, recv := []int{per, per}, make([]float64, 2*per), make([]float64, 2*per)
			return func() error { return AlltoallvInto(c, send, counts, recv, counts) }
		}},
		{"doublingAllgatherSegs", 4, func(c *Comm) func() error {
			acc := make([]float64, 8<<10)
			return func() error { return doublingAllgatherSegs(c, acc) }
		}},
		{"Sendrecv", 2, func(c *Comm) func() error {
			send, recv := make([]float64, 8<<10), []float64(nil)
			return func() error {
				_, err := c.Sendrecv(1-c.Rank(), 0, send, 1-c.Rank(), 0, &recv)
				return err
			}
		}},
	} {
		if got, _ := exchangeBytes(t, tc.np, tc.prepare); got >= 1<<10 {
			t.Errorf("%s allocates %d bytes per call per rank, want under 1 KiB", tc.name, got)
		}
	}
}

// TestCollectivesAllocateOnlyTheirResult: once warm, a collective call
// allocates nothing but the value it returns, on every rank. Barrier returns
// none and allocates nothing (a round's token lands in the communicator), nor
// does AlltoallvInto at np = 2; AllreduceSliceOp at or below vectorThreshold
// allocates its result and at most one object more. (Barrier allocated one
// object per round; the other two 4 and about 8 objects per call per rank,
// while each step boxed its block, built its displacements, its folds and its
// tree's child list, and took fresh receive buffers.) At np = 4 an AlltoallvInto ring step
// (left ≠ right) whose peer is still a step behind when the step's receive
// is done recalls its block into the private copy Send would have made, two
// objects (array and box), so the bound there is two per ring step.
func TestCollectivesAllocateOnlyTheirResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	type row struct {
		name    string
		np      int
		want    float64 // objects per call per rank, at most
		prepare func(c *Comm) func() error
	}
	var rows []row
	for _, np := range []int{2, 4} {
		rows = append(rows, row{"Barrier", np, 0, func(c *Comm) func() error { return c.Barrier }})
		rows = append(rows, row{"AlltoallvInto", np, float64(2 * (np - 2)), func(c *Comm) func() error {
			const per = 10000
			counts := make([]int, np)
			for i := range counts {
				counts[i] = per
			}
			send, recv := make([]float64, np*per), make([]float64, np*per)
			return func() error { return AlltoallvInto(c, send, counts, recv, counts) }
		}})
		for _, op := range []Op{Sum, Max} {
			for _, elems := range []int{1, vectorThreshold} {
				rows = append(rows, row{fmt.Sprintf("AllreduceSliceOp(%v) of %d", op, elems), np, 2, func(c *Comm) func() error {
					v := make([]float64, elems)
					return func() error {
						_, err := AllreduceSliceOp(c, v, op)
						return err
					}
				}})
			}
		}
	}
	for _, r := range rows {
		_, got := exchangeBytes(t, r.np, r.prepare)
		t.Logf("%s at np=%d: %.2f objects per call per rank", r.name, r.np, got)
		if got > r.want {
			t.Errorf("%s at np=%d allocates %.2f objects per call per rank, want at most %v", r.name, r.np, got, r.want)
		}
	}
}

// TestAlltoallvWrongLengthBlock: a block of another length than recvCounts
// says is reported with Alltoallv's own message, whether it landed from its
// sender's hands (the rank that came first) or was taken off the queue.
func TestAlltoallvWrongLengthBlock(t *testing.T) {
	for first := 0; first < 2; first++ {
		var errs [2]error
		err := Run(2, func(c *Comm) error {
			peer := 1 - c.Rank()
			send, recv := make([]int, 6), make([]int, 4)
			sendCounts, recvCounts := []int{1, 1}, []int{1, 1}
			sendCounts[peer], recvCounts[peer] = 5, 3 // each sends 5 where the other expects 3
			if c.Rank() != first {
				if err := waitQueued(c.mailbox(), 1); err != nil {
					return err
				}
			}
			errs[c.Rank()] = AlltoallvInto(c, send, sendCounts, recv, recvCounts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			want := fmt.Sprintf("mpi: Alltoallv: rank %d sent 5 elements, recvCounts say 3", 1-r)
			if err == nil || err.Error() != want {
				t.Errorf("rank %d first: rank %d's AlltoallvInto = %v, want %q", first, r, err, want)
			}
		}
	}
}

// TestPostedAheadReceiveIsOnTheClock: a receive posted ahead of its await is
// stamped when it is posted: a deadline snapshot taken before anybody awaits it
// lists it with the time since the post, and an await that comes after the
// budget is spent reports the deadline.
func TestPostedAheadReceiveIsOnTheClock(t *testing.T) {
	const budget = 5 * time.Millisecond
	m := newMailbox()
	var f frame
	w, err := m.post("Recv", 7, 1, 5, budget, nil, &f)
	if w == nil || err != nil {
		t.Fatalf("post = %v, %v: want a posted receive", w, err)
	}
	for start := time.Now(); time.Since(start) < 2*budget; {
		runtime.Gosched()
	}
	ops := m.appendBlocked(nil, 3)
	if len(ops) != 1 || ops[0].Rank != 3 || ops[0].Op != "Recv" || ops[0].Ctx != 7 || ops[0].Src != 1 || ops[0].Tag != 5 || ops[0].Waited < 2*budget {
		t.Fatalf("snapshot = %+v, want the posted receive, waiting since its post", ops)
	}
	fired := 0
	err = m.await(w, budget, func() error { fired++; return ErrDeadlineExceeded }, nil, &f)
	if err != ErrDeadlineExceeded || fired != 1 || postedLen(m) != 0 {
		t.Fatalf("await = %v after %d reports with %d receives left posted, want one deadline report", err, fired, postedLen(m))
	}
}
