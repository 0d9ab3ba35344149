package mpi

import (
	"bytes"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

// shmWords allocates n bytes 8-aligned, as every offset of a mapping is, so
// the atomic views of positions and block states are valid on them.
func shmWords(n uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]uint64, n/8)))), n)
}

// shmLoopback is a one-rank endpoint over process memory whose only pair is
// its self pair, with the given capacities: sendRing produces into out[0]
// and pollPair consumes the same ring and region through in[0]. It maps no
// segment and joins no world, so a test can produce, damage and decode
// records.
func shmLoopback(ringCap, largeCap uint64) *shmTransport {
	t := &shmTransport{
		seg: &shmSegment{data: shmWords(shmSegHdrSize), np: 1, ringCap: ringCap, largeCap: largeCap},
		np:  1,
		out: make([]shmSendPair, 1),
		in:  make([]shmRecvPair, 1),
	}
	o := &t.out[0]
	o.msgTail, o.msgHead = new(atomic.Uint64), new(atomic.Uint64)
	o.largeTail, o.largeHead = new(atomic.Uint64), new(atomic.Uint64)
	o.ring, o.large = shmWords(ringCap), shmWords(largeCap)
	t.in[0] = shmRecvPair{msgTail: o.msgTail, msgHead: o.msgHead, ring: o.ring, large: o.large}
	return t
}

// TestShmRecordRefusal: a record whose eager payload runs past its end is
// refused, not delivered with the ring's next bytes: pollPair aborts the
// world with the ring's corruption error, stops the poll loop and leaves the
// record unconsumed. The clean record before it is delivered.
func TestShmRecordRefusal(t *testing.T) {
	tr := shmLoopback(1<<10, 4<<10)
	w := &World{}
	tr.bind(w, newMailbox())
	p := &tr.out[0]
	for _, fr := range []frame{{Tag: 1, Data: []byte("ok")}, {Tag: 2, Data: []byte("payload")}} {
		if err := tr.sendRing(p, fr); err != nil {
			t.Fatal(err)
		}
	}
	second := le.Uint32(p.ring) // the first record's size
	le.PutUint32(p.ring[second+20:], 64)
	if !tr.pollPair(0) {
		t.Fatal("the clean record was not consumed")
	}
	if tr.pollPair(0) {
		t.Fatal("the record announcing 64 payload bytes was consumed")
	}
	if !tr.stopped.Load() {
		t.Fatal("the poll loop was not stopped")
	}
	if head := tr.in[0].msgHead.Load(); head != uint64(second) {
		t.Fatalf("ring head at %d, want %d: the refused record was consumed", head, second)
	}
	err := w.abortErr()
	if err == nil || !strings.Contains(err.Error(), "shm ring from rank 0 corrupt (record at offset 40: eager payload of 64 bytes") {
		t.Fatalf("world abort = %v, want the ring's corruption error", err)
	}
}

// FuzzShmRecord: the shm receive path's decoder under arbitrary ring bytes.
// The input is a run of records as a peer leaves them in a ring. They are
// decoded in order against a fresh large region, each passed with no
// capacity past its end, until handleRecord refuses one or the next size is
// one pollPair refuses itself. handleRecord never panics, reads nothing
// outside its record and the region, and writes nothing in the region but
// the state word of a 16-aligned block; a message it completes carries
// exactly the payload bytes its records announced. The seeds are real
// sendEager, sendLarge and sendChunked output, and copies damaged in the one
// field a check guards.
func FuzzShmRecord(f *testing.F) {
	const ringCap, largeCap = 1 << 10, 4 << 10
	const paylenAt, bodyAt = 20, shmRecHdrSize
	send := func(fr frame) []byte {
		tr := shmLoopback(ringCap, largeCap)
		p := &tr.out[0]
		if err := tr.sendRing(p, fr); err != nil {
			f.Fatal(err)
		}
		return bytes.Clone(p.ring[:p.msgTail.Load()])
	}
	set32 := func(rec []byte, at int, v uint32) []byte {
		rec = bytes.Clone(rec)
		le.PutUint32(rec[at:], v)
		return rec
	}
	set64 := func(rec []byte, at int, v uint64) []byte {
		rec = bytes.Clone(rec)
		le.PutUint64(rec[at:], v)
		return rec
	}
	eager := send(frame{Ctx: 1, Tag: 3, Val: []float64{3.14}, HasVal: true})
	rendezvous := send(frame{Ctx: 1, Tag: 4, Val: make([]float64, 100), HasVal: true}) // 800 bytes, one staged block
	chunked := send(frame{Ctx: 1, Tag: 5, Val: make([]int64, 375), HasVal: true})      // 3000 bytes: 2016, then 984
	next := int(le.Uint32(chunked))                                                    // the second chunk's record
	for _, seed := range [][]byte{
		eager, rendezvous, chunked, slices.Concat(eager, chunked, rendezvous),
		send(frame{Ctx: 1, Tag: 6, Data: []byte("gob bytes")}), // gob payloads are copied out at once
		send(frame{Ctx: 1, Tag: 7, Data: make([]byte, 1000)}),
		send(frame{Ctx: 1, Tag: 8, Data: make([]byte, 2500)}),
		set32(eager, paylenAt, 16),                // eager payload past its record
		set32(rendezvous[:bodyAt], 0, bodyAt),     // descriptor without its block offset
		set64(rendezvous, bodyAt, 8),              // block offset not 16-aligned
		set64(rendezvous, bodyAt, largeCap),       // block offset past the region
		set64(rendezvous, bodyAt, ^uint64(15)),    // block offset whose header + payload wraps to the region's start
		set64(rendezvous, bodyAt, largeCap-256),   // header + payload past the region's end
		set32(chunked[:bodyAt], 0, bodyAt),        // first chunk without a descriptor
		set32(chunked[:bodyAt+8], 0, bodyAt+8),    // first chunk's descriptor without its block offset
		set64(chunked, bodyAt, 1000),              // message total below the first chunk's 2016 bytes
		set64(chunked, bodyAt, 1<<62),             // message total no reader believes
		set64(chunked, next+bodyAt, largeCap+128), // second chunk's block past the region
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &shmTransport{}
		p := &shmRecvPair{large: shmWords(largeCap)}
		const canary = 0xAA
		for i := range p.large {
			p.large[i] = canary
		}
		for len(data) >= shmRecHdrSize {
			size := int(le.Uint32(data))
			if size < shmRecHdrSize || size > len(data) {
				return // pollPair's own size check refuses it
			}
			rec := data[:size:size]
			data = data[size:]
			flags, body := rec[5], rec[shmRecHdrSize:]
			want := int(le.Uint32(rec[paylenAt:]))
			switch flags & (shmFlagLarge | shmFlagChunkFirst | shmFlagChunkNext) {
			case shmFlagChunkFirst, shmFlagChunkFirst | shmFlagChunkNext:
				if len(body) >= 8 {
					if n := le.Uint64(body); n > 1<<20 && n <= maxRawFrame {
						return // a believable total: allocating it proves nothing here
					}
				}
			case shmFlagChunkNext:
				if p.asm != nil {
					want += p.asm.fill // the message's bytes so far, then this chunk's
				}
			}
			fr, done, err := tr.handleRecord(p, rec)
			if err != nil {
				return // the poll loop stops here
			}
			if done {
				if len(fr.Data) != want {
					t.Fatalf("message delivered with %d payload bytes, its records announced %d", len(fr.Data), want)
				}
				fr.release()
			}
			for i, b := range p.large {
				if b != canary && i%16/4 != 1 {
					t.Fatalf("large-region byte %d written; only a 16-aligned block's state word may be", i)
				}
			}
		}
	})
}
