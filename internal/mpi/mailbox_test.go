package mpi

import "testing"

func deliverAll(m *mailbox, fs ...frame) {
	for _, f := range fs {
		m.deliver(f)
	}
}

func TestMailboxMatchesBySourceAndTag(t *testing.T) {
	m := newMailbox()
	deliverAll(m,
		frame{Ctx: 0, Src: 1, Tag: 10, Data: []byte("a")},
		frame{Ctx: 0, Src: 2, Tag: 10, Data: []byte("b")},
		frame{Ctx: 0, Src: 1, Tag: 20, Data: []byte("c")},
	)
	f, err := m.take(0, 1, 20)
	if err != nil || string(f.Data) != "c" {
		t.Fatalf("take(src=1,tag=20) = %q, %v; want c", f.Data, err)
	}
	f, err = m.take(0, 2, 10)
	if err != nil || string(f.Data) != "b" {
		t.Fatalf("take(src=2,tag=10) = %q, %v; want b", f.Data, err)
	}
}

func TestMailboxWildcardsTakeEarliest(t *testing.T) {
	m := newMailbox()
	deliverAll(m,
		frame{Ctx: 0, Src: 3, Tag: 7, Data: []byte("first")},
		frame{Ctx: 0, Src: 1, Tag: 9, Data: []byte("second")},
	)
	f, err := m.take(0, AnySource, AnyTag)
	if err != nil || string(f.Data) != "first" {
		t.Fatalf("wildcard take = %q, %v; want first", f.Data, err)
	}
}

func TestMailboxContextIsolation(t *testing.T) {
	m := newMailbox()
	deliverAll(m,
		frame{Ctx: 5, Src: 0, Tag: 1, Data: []byte("other comm")},
		frame{Ctx: 0, Src: 0, Tag: 1, Data: []byte("world")},
	)
	f, err := m.take(0, AnySource, AnyTag)
	if err != nil || string(f.Data) != "world" {
		t.Fatalf("ctx-0 take = %q, %v; want world", f.Data, err)
	}
	f, err = m.take(5, 0, 1)
	if err != nil || string(f.Data) != "other comm" {
		t.Fatalf("ctx-5 take = %q, %v; want other comm", f.Data, err)
	}
}

func TestMailboxFIFOPerSender(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 10; i++ {
		m.deliver(frame{Ctx: 0, Src: 4, Tag: 1, Data: []byte{byte(i)}})
	}
	for i := 0; i < 10; i++ {
		f, err := m.take(0, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i) {
			t.Fatalf("message %d arrived out of order (got %d)", i, f.Data[0])
		}
	}
}

func TestMailboxTakeBlocksUntilDelivery(t *testing.T) {
	m := newMailbox()
	got := make(chan frame, 1)
	go func() {
		f, err := m.take(0, 1, 1)
		if err != nil {
			return
		}
		got <- f
	}()
	m.deliver(frame{Ctx: 0, Src: 1, Tag: 1, Data: []byte("late")})
	f := <-got
	if string(f.Data) != "late" {
		t.Fatalf("blocked take returned %q", f.Data)
	}
}

func TestMailboxCloseUnblocksReceivers(t *testing.T) {
	m := newMailbox()
	errCh := make(chan error, 1)
	go func() {
		_, err := m.take(0, AnySource, AnyTag)
		errCh <- err
	}()
	m.close()
	if err := <-errCh; err != ErrShutdown {
		t.Fatalf("take after close = %v, want ErrShutdown", err)
	}
	if _, err := m.take(0, AnySource, AnyTag); err != ErrShutdown {
		t.Fatalf("take posted after close = %v, want ErrShutdown", err)
	}
}

func TestMatchesWildcards(t *testing.T) {
	f := frame{Ctx: 1, Src: 3, Tag: 9}
	cases := []struct {
		ctx      int64
		src, tag int
		want     bool
	}{
		{1, 3, 9, true},
		{1, AnySource, 9, true},
		{1, 3, AnyTag, true},
		{1, AnySource, AnyTag, true},
		{2, 3, 9, false},
		{1, 4, 9, false},
		{1, 3, 8, false},
	}
	for _, c := range cases {
		if got := matches(f, c.ctx, c.src, c.tag); got != c.want {
			t.Errorf("matches(ctx=%d src=%d tag=%d) = %v, want %v", c.ctx, c.src, c.tag, got, c.want)
		}
	}
}
