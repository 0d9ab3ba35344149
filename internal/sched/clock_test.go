package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// manualClock is a clock the test moves. Time stands still until advance,
// which fires the callbacks that fall due, in due order (ties in arming
// order), each with the clock reading its due time and on the advancing
// goroutine: when advance returns, everything due has run.
type manualClock struct {
	mu      sync.Mutex
	t       time.Time
	seq     int
	timers  []*manualTimer
	changed chan struct{} // closed and replaced when a timer is armed or removed
}

type manualTimer struct {
	c   *manualClock
	due time.Time
	seq int
	f   func()
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2021, 3, 1, 9, 0, 0, 0, time.UTC), changed: make(chan struct{})}
}

// newManualSched is newTestSched on a manual clock. New arms no timer, so
// the clock can be swapped before the first call.
func newManualSched(t *testing.T, cfg Config) (*Scheduler, *manualClock) {
	t.Helper()
	s := newTestSched(t, cfg)
	c := newManualClock()
	s.clock = c
	return s, c
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) afterFunc(d time.Duration, f func()) timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &manualTimer{c: c, due: c.t.Add(d), seq: c.seq, f: f}
	c.timers = append(c.timers, t)
	c.changedLocked()
	return t
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.removeLocked(t)
}

func (c *manualClock) removeLocked(t *manualTimer) bool {
	for i, p := range c.timers {
		if p == t {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			c.changedLocked()
			return true
		}
	}
	return false
}

func (c *manualClock) changedLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// nextLocked is the pending timer that fires first, nil if none.
func (c *manualClock) nextLocked() *manualTimer {
	var next *manualTimer
	for _, t := range c.timers {
		if next == nil || t.due.Before(next.due) || t.due.Equal(next.due) && t.seq < next.seq {
			next = t
		}
	}
	return next
}

// advance moves the clock forward by d, firing every callback that falls
// due on the way, including ones armed by the callbacks it fires.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.t.Add(d)
	for {
		t := c.nextLocked()
		if t == nil || t.due.After(end) {
			break
		}
		c.removeLocked(t)
		c.t = t.due
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.t = end
	c.mu.Unlock()
}

// untilNext is how far the clock is from its first due time.
func (c *manualClock) untilNext(tb testing.TB) time.Duration {
	tb.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.nextLocked()
	if t == nil {
		tb.Fatal("no callback pending")
	}
	return t.due.Sub(c.t)
}

func (c *manualClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// awaitPending waits until exactly n callbacks are pending: for a timer a
// goroutine other than the test's arms, such as a run's timeout.
func (c *manualClock) awaitPending(tb testing.TB, n int) {
	tb.Helper()
	deadline := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		got, changed := len(c.timers), c.changed
		c.mu.Unlock()
		if got == n {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			tb.Fatalf("%d callbacks pending after 10s, want %d", got, n)
		}
	}
}

// TestManualClockFiresInDueOrder pins the test clock itself: callbacks run
// in due order at their due times, one armed by a callback fires in the
// same advance when it falls due, and a stopped one never runs.
func TestManualClockFiresInDueOrder(t *testing.T) {
	c := newManualClock()
	start := c.now()
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+c.now().Sub(start).String()) }
	}
	c.afterFunc(3*time.Second, at("c"))
	c.afterFunc(time.Second, func() {
		at("a")()
		c.afterFunc(time.Second, at("b"))
	})
	stopped := c.afterFunc(2*time.Second, at("never"))
	c.afterFunc(5*time.Second, at("d"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop should report true once, then false")
	}
	c.advance(3 * time.Second)
	if want := "[a@1s b@2s c@3s]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if c.pending() != 1 || c.untilNext(t) != 2*time.Second {
		t.Fatalf("pending %d, next in %s; want d alone, 2s away", c.pending(), c.untilNext(t))
	}
}
