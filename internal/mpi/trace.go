package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MessageCounter observes every frame a world's transport carries — user
// messages and the collectives' internal traffic alike. The teaching
// materials use it to make communication visible: learners can *count* that
// a linear reduce costs n−1 messages while a broadcast tree costs n−1 in
// log n rounds, and the ablation tests pin those counts.
type MessageCounter struct {
	mu     sync.Mutex
	total  int
	bytes  int
	byPair map[[2]int]int // [src world rank, dst world rank] -> messages
	byTag  map[int]int
}

// NewMessageCounter returns an empty counter; install it with WithCounter.
func NewMessageCounter() *MessageCounter {
	return &MessageCounter{
		byPair: map[[2]int]int{},
		byTag:  map[int]int{},
	}
}

// observe records one frame. Fast-path frames carry no wire bytes, so their
// in-memory payload size is recorded instead (see Status.Bytes).
func (mc *MessageCounter) observe(f frame) {
	mc.mu.Lock()
	mc.total++
	mc.bytes += f.payloadSize()
	mc.byPair[[2]int{f.WSrc, f.Dst}]++
	mc.byTag[f.Tag]++
	mc.mu.Unlock()
}

// Total reports how many messages the world has carried.
func (mc *MessageCounter) Total() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.total
}

// Bytes reports the total payload bytes carried.
func (mc *MessageCounter) Bytes() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.bytes
}

// Pair reports how many messages travelled from src to dst (world ranks).
func (mc *MessageCounter) Pair(src, dst int) int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.byPair[[2]int{src, dst}]
}

// Tag reports how many messages carried the given tag. Collective traffic
// uses the runtime's reserved negative tags.
func (mc *MessageCounter) Tag(tag int) int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.byTag[tag]
}

// Reset zeroes the counter between measured phases.
func (mc *MessageCounter) Reset() {
	mc.mu.Lock()
	mc.total, mc.bytes = 0, 0
	mc.byPair = map[[2]int]int{}
	mc.byTag = map[int]int{}
	mc.mu.Unlock()
}

// String summarizes the traffic, heaviest pairs first.
func (mc *MessageCounter) String() string {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	type pc struct {
		pair  [2]int
		count int
	}
	pairs := make([]pc, 0, len(mc.byPair))
	for p, n := range mc.byPair {
		pairs = append(pairs, pc{p, n})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].pair[0]*1e6+pairs[i].pair[1] < pairs[j].pair[0]*1e6+pairs[j].pair[1]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%d messages, %d payload bytes\n", mc.total, mc.bytes)
	for _, p := range pairs {
		fmt.Fprintf(&b, "  %d -> %d: %d\n", p.pair[0], p.pair[1], p.count)
	}
	return b.String()
}

// WithCounter installs a MessageCounter on the world's transport.
func WithCounter(mc *MessageCounter) Option {
	return func(c *config) { c.counter = mc }
}

// countingTransport wraps a transport with a MessageCounter.
type countingTransport struct {
	inner Transport
	mc    *MessageCounter
}

func (t *countingTransport) Send(f frame) error {
	t.mc.observe(f)
	return t.inner.Send(f)
}

func (t *countingTransport) Close() error { return t.inner.Close() }
