package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTypedPayloadWhitelist(t *testing.T) {
	type scalars struct {
		A int
		B float64
		C string
		D [3]int
	}
	type withSlice struct {
		A  int
		Xs []float64
	}
	type withUnexported struct {
		A int
		b int //lint:ignore U1000 exercises the unexported-field rejection
	}
	yes := []any{
		true, 7, int64(7), uint8(9), 3.14, float32(2.5), complex(1, 2),
		"hello", []float64{1, 2}, []int{3}, []byte("xy"), []int64{4},
		[]float32{1}, []bool{true}, []string{"a", "b"}, []int32{5},
		scalars{A: 1, B: 2, C: "x", D: [3]int{1, 2, 3}},
	}
	for _, v := range yes {
		slice, ok := typedValue(v)
		if !ok {
			t.Errorf("typedValue(%T) rejected, want fast path", v)
		}
		if want := reflect.TypeOf(v).Kind() == reflect.Slice; slice != want {
			t.Errorf("typedValue(%T) reports slice = %v, want %v", v, slice, want)
		}
	}
	no := []any{
		nil,
		withSlice{A: 1, Xs: []float64{1}}, // slice field: shallow copy aliases
		withUnexported{A: 1},              // gob would drop the unexported field
		map[string]int{"a": 1},
		&scalars{},
		[][]int{{1}},
	}
	for _, v := range no {
		if _, ok := typedValue(v); ok {
			t.Errorf("typedValue(%T) accepted, want gob path", v)
		}
	}
}

// ownSync orders one ownership exchange between the two rank goroutines of
// an in-process world, whichever transport connects them.
type ownSync struct {
	box   chan *mailbox // rank 1's mailbox, for rank 0 to watch
	ready chan struct{} // rank 1 is about to Recv (posted order)
	sent  chan struct{} // rank 0's Send has returned (unexpected order)
	dead  chan struct{} // closed by a rank that failed, so its partner does not wait for it
}

var errOwnPartner = errors.New("the other rank failed")

// await receives from ch unless the other rank has failed.
func (y *ownSync) await(ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-y.dead:
		return errOwnPartner
	}
}

// ownershipExchange sends two three-element slices from rank 0 to rank 1, one
// variable on each side. The sender overwrites its buffer the moment Send
// returns; the receiver must see the values from before, owns what it got
// (it writes an element while the sender scribbles — the -race run is that
// assertion), and a copy taken out of the first message must survive the
// second Recv into the same variable. posted: each Recv is on the mailbox's
// posted queue before its Send starts; otherwise each Send has returned
// before its Recv starts.
func ownershipExchange[S, R comparable](c *Comm, y *ownSync, posted bool, tag int, s func(int) S, r func(int) R) error {
	bases := []int{10, 20}
	if c.Rank() == 0 {
		box := <-y.box
		y.box <- box
		for _, base := range bases {
			buf := []S{s(base), s(base + 1), s(base + 2)}
			if posted {
				if err := y.await(y.ready); err != nil {
					return err
				}
				if err := waitPosted(box, 1); err != nil {
					return err
				}
			}
			if err := c.Send(1, tag, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = s(-1)
			}
			if !posted {
				y.sent <- struct{}{}
			}
		}
		return nil
	}
	var got, kept, first []R
	for _, base := range bases {
		if posted {
			select {
			case y.ready <- struct{}{}:
			case <-y.dead:
				return errOwnPartner
			}
		} else if err := y.await(y.sent); err != nil {
			return err
		}
		if _, err := c.Recv(0, tag, &got); err != nil {
			return err
		}
		want := []R{r(base), r(base + 1), r(base + 2)}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%T into %T: received %v, want %v (the sender's write after Send must not show)", []S(nil), &got, got, want)
		}
		if kept == nil {
			kept, first = slices.Clone(got), want
			got[1] = r(-1)
		}
	}
	if !slices.Equal(kept, first) {
		return fmt.Errorf("%T into %T: a copy of the first message reads %v after the second Recv, want %v", []S(nil), &got, kept, first)
	}
	return nil
}

// TestCopyOnSendDecouplesSenderBuffer pins the ownership rule on every
// transport, in both arrival orders, for every slice type that travels
// borrowed plus a receive pointer of another type (which takes the gob
// detour): mutating the sent slice immediately after Send is never visible to
// the receiver, exactly as if the payload had been serialized.
func TestCopyOnSendDecouplesSenderBuffer(t *testing.T) {
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
		for _, posted := range []bool{true, false} {
			mode, posted := mode, posted
			name := mode.name + "/send-first"
			if posted {
				name = mode.name + "/recv-posted"
			}
			t.Run(name, func(t *testing.T) {
				y := &ownSync{box: make(chan *mailbox, 1), ready: make(chan struct{}), sent: make(chan struct{}, 1), dead: make(chan struct{})}
				err := mode.run(2, func(c *Comm) (err error) {
					defer func() {
						if err != nil {
							close(y.dead)
						}
					}()
					if c.Rank() == 1 {
						y.box <- c.mailbox()
					}
					f64 := func(i int) float64 { return float64(i) / 2 }
					f32 := func(i int) float32 { return float32(i) / 2 }
					i64 := func(i int) int64 { return int64(i) << 33 }
					i32 := func(i int) int32 { return int32(i) }
					u8 := func(i int) byte { return byte(i) }
					even := func(i int) bool { return i >= 0 && i%2 == 0 }
					str := func(i int) string { return fmt.Sprint("s", i) }
					wide := func(i int) int64 { return int64(i) }
					return errors.Join(
						ownershipExchange(c, y, posted, 0, f64, f64),
						ownershipExchange(c, y, posted, 1, num, num),
						ownershipExchange(c, y, posted, 2, u8, u8),
						ownershipExchange(c, y, posted, 3, i64, i64),
						ownershipExchange(c, y, posted, 4, i32, i32),
						ownershipExchange(c, y, posted, 5, f32, f32),
						ownershipExchange(c, y, posted, 6, even, even),
						ownershipExchange(c, y, posted, 7, str, str),
						ownershipExchange(c, y, posted, 8, num, wide), // []int into *[]int64: gob's widening
					)
				}, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFastPathTypeMismatchFallsBackToGob: a typed payload received into a
// differently-typed pointer behaves exactly as the serialized path — gob's
// numeric flexibility for the legal cases, gob's error for the illegal ones.
func TestFastPathTypeMismatchFallsBackToGob(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, int(41)); err != nil { // int -> int64 is legal in gob
				return err
			}
			return c.Send(1, 1, "not a struct")
		}
		var wide int64
		if _, err := c.Recv(0, 0, &wide); err != nil {
			return err
		}
		if wide != 41 {
			return fmt.Errorf("cross-width decode got %d", wide)
		}
		var wrong struct{ X int }
		if _, err := c.Recv(0, 1, &wrong); err == nil {
			return fmt.Errorf("string decoded into struct without error")
		} else if !strings.Contains(err.Error(), "decoding message payload") {
			return fmt.Errorf("mismatch error %v lacks the gob-path text", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignTypedExactMatchesOnly(t *testing.T) {
	var i int
	if !assignTyped(7, &i) || i != 7 {
		t.Fatal("assignTyped(*int) failed")
	}
	var w int64
	if assignTyped(7, &w) {
		t.Fatal("assignTyped crossed int -> int64; that is gob's job")
	}
	var xs []float64
	if !assignTyped([]float64{1, 2}, &xs) || len(xs) != 2 {
		t.Fatal("assignTyped(*[]float64) failed")
	}
	if assignTyped(1, nil) {
		t.Fatal("assignTyped accepted a nil destination")
	}
	type pt struct{ X, Y int }
	var p pt
	if !assignTyped(pt{1, 2}, &p) || p != (pt{1, 2}) {
		t.Fatal("assignTyped(struct) failed")
	}
}

func TestTypedSizePositiveForNonEmptyPayloads(t *testing.T) {
	for _, v := range []any{1, int64(2), 2.5, true, "x", []float64{1}, []int{1}, []byte{0}, struct{ A, B int }{}} {
		if typedSize(v) <= 0 {
			t.Errorf("typedSize(%T) = %d, want > 0", v, typedSize(v))
		}
	}
	if typedSize([]float64{1, 2, 3}) != 24 {
		t.Errorf("typedSize([]float64 x3) = %d, want 24", typedSize([]float64{1, 2, 3}))
	}
}

// recordingTransport wraps the world's real transport and keeps a copy of
// every frame it carries, so tests can assert which representation — typed
// payload or gob bytes — actually travelled.
type recordingTransport struct {
	inner Transport
	mu    sync.Mutex
	fs    []frame
}

func (r *recordingTransport) Send(f frame) error {
	r.mu.Lock()
	r.fs = append(r.fs, f)
	r.mu.Unlock()
	return r.inner.Send(f)
}

func (r *recordingTransport) Close() error { return r.inner.Close() }

func (r *recordingTransport) frames() []frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frame(nil), r.fs...)
}

// withTransportWrapper installs rt as the outermost transport decoration.
func withTransportWrapper(rt *recordingTransport) Option {
	return func(c *config) {
		c.wrap = func(t Transport) Transport {
			rt.inner = t
			return rt
		}
	}
}

// TestFastPathSkipsGobForWhitelistedPayloads proves the fast path is
// actually taken on the local transport, structurally: the frame observed
// in flight carries a typed payload and no gob bytes.
func TestFastPathSkipsGobForWhitelistedPayloads(t *testing.T) {
	seen := &recordingTransport{}
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []float64{1, 2, 3})
		}
		var got []float64
		_, err := c.Recv(0, 0, &got)
		return err
	}, withTransportWrapper(seen))
	if err != nil {
		t.Fatal(err)
	}
	fs := seen.frames()
	if len(fs) != 1 {
		t.Fatalf("saw %d frames, want 1", len(fs))
	}
	if !fs[0].HasVal || fs[0].Data != nil {
		t.Fatalf("frame carried Data=%d bytes HasVal=%v; want a typed payload and no gob bytes",
			len(fs[0].Data), fs[0].HasVal)
	}
	if _, ok := fs[0].Val.([]float64); !ok {
		t.Fatalf("typed payload is %T, want []float64", fs[0].Val)
	}
}

func TestShallowCopyableCacheStable(t *testing.T) {
	type s struct{ A, B float64 }
	ty := reflect.TypeOf(s{})
	for i := 0; i < 3; i++ {
		if !shallowCopyable(ty) {
			t.Fatal("struct of exported scalars rejected")
		}
	}
	if shallowCopyable(reflect.TypeOf([]int{})) {
		t.Fatal("slices must not be shallow-copyable")
	}
}
