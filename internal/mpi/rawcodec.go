package mpi

import (
	"fmt"
	"math"
)

// Raw little-endian payload codec for the TCP transport's typed binary
// framing. Gob is self-describing and flexible, but for a 1 MB []float64 it
// spends its time on varint encoding and type metadata that both ends of an
// in-repo connection already agree on. The raw codec covers exactly the
// numeric slice shapes from the fast-path whitelist (fastpath.go) and writes
// their element storage verbatim in little-endian order: encoding is a
// memmove-shaped loop, decoding another, and the framing layer (wire.go)
// carries a one-byte kind code so the receiver knows which loop to run.
// Everything outside this whitelist still travels as gob — the raw path is
// an optimization, never a change in what can be sent.

// Raw payload kind codes. rawNone marks a frame whose payload is gob (or
// typed in-memory); the rest identify a whitelisted slice element type.
const (
	rawNone    byte = 0
	rawFloat64 byte = 1
	rawInt     byte = 2 // transmitted as int64; decode errors on overflow, like gob
	rawInt64   byte = 3
	rawInt32   byte = 4
	rawFloat32 byte = 5
	rawBytes   byte = 6
	rawBool    byte = 7
)

// rawKindOf reports the raw wire kind for v, and whether v is raw-encodable
// at all. []string is fast-path whitelisted in memory but excluded here: its
// elements are variable length, so it gains little over gob.
func rawKindOf(v any) (byte, bool) {
	switch v.(type) {
	case []float64:
		return rawFloat64, true
	case []int:
		return rawInt, true
	case []int64:
		return rawInt64, true
	case []int32:
		return rawInt32, true
	case []float32:
		return rawFloat32, true
	case []byte:
		return rawBytes, true
	case []bool:
		return rawBool, true
	}
	return rawNone, false
}

// rawSizeOf reports the encoded payload length in bytes for a raw-encodable
// value (which the caller has already vetted with rawKindOf): its element
// storage, as typedSize counts it.
func rawSizeOf(v any) int { return typedSize(v) }

// rawEncode writes v's element storage into buf, which the caller has sized
// with rawSizeOf, and reports the bytes written.
func rawEncode(buf []byte, v any) int {
	switch x := v.(type) {
	case []float64:
		return rawPut(buf, x, 8, func(b []byte, e float64) { le.PutUint64(b, math.Float64bits(e)) })
	case []int:
		return rawPut(buf, x, 8, func(b []byte, e int) { le.PutUint64(b, uint64(int64(e))) })
	case []int64:
		return rawPut(buf, x, 8, func(b []byte, e int64) { le.PutUint64(b, uint64(e)) })
	case []int32:
		return rawPut(buf, x, 4, func(b []byte, e int32) { le.PutUint32(b, uint32(e)) })
	case []float32:
		return rawPut(buf, x, 4, func(b []byte, e float32) { le.PutUint32(b, math.Float32bits(e)) })
	case []byte:
		return copy(buf, x)
	case []bool:
		return rawPut(buf, x, 1, func(b []byte, e bool) {
			if b[0] = 0; e {
				b[0] = 1
			}
		})
	}
	return 0
}

func rawPut[T any](buf []byte, x []T, size int, put func([]byte, T)) int {
	for i, e := range x {
		put(buf[size*i:], e)
	}
	return size * len(x)
}

// rawDecodeInto decodes a raw payload into the receive pointer dst when the
// element types match exactly, reusing dst's backing array when it has the
// capacity (that is what makes a steady-state receive loop allocation-free).
// A false return means the receiver asked for a different type and the
// caller must fall back to the gob round trip for identical error semantics.
func rawDecodeInto(kind byte, data []byte, dst any) bool {
	switch p := dst.(type) {
	case *[]float64:
		return kind == rawFloat64 && rawFill(p, data, 8, func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) })
	case *[]int:
		return kind == rawInt && rawFill(p, data, 8, func(b []byte) int { return int(int64(le.Uint64(b))) })
	case *[]int64:
		return kind == rawInt64 && rawFill(p, data, 8, func(b []byte) int64 { return int64(le.Uint64(b)) })
	case *[]int32:
		return kind == rawInt32 && rawFill(p, data, 4, func(b []byte) int32 { return int32(le.Uint32(b)) })
	case *[]float32:
		return kind == rawFloat32 && rawFill(p, data, 4, func(b []byte) float32 { return math.Float32frombits(le.Uint32(b)) })
	case *[]byte:
		return kind == rawBytes && rawFill(p, data, 1, func(b []byte) byte { return b[0] })
	case *[]bool:
		return kind == rawBool && rawFill(p, data, 1, func(b []byte) bool { return b[0] != 0 })
	}
	return false
}

// rawFill decodes data, elements of size wire bytes each, into the slice p
// points at: one memmove where its storage is the wire encoding, else get
// per element.
func rawFill[T any](p *[]T, data []byte, size int, get func([]byte) T) bool {
	if view, ok := growView(p, len(data), size, true); ok {
		copy(view, data)
		return true
	}
	for i := range *p {
		(*p)[i] = get(data[size*i:])
	}
	return true
}

// growView resizes the slice p points at to n wire bytes of size-byte
// elements and returns its element storage as bytes, where that storage is
// the wire encoding (rawBytesView): the step rawFill and a payload read
// straight off the socket (rawLanding) share. A nil p, or a slice of another
// kind than the payload's (!match), is left alone.
func growView[T any](p *[]T, n, size int, match bool) ([]byte, bool) {
	if p == nil || !match {
		return nil, false
	}
	*p = growSlice(*p, n/size)
	return rawBytesView(*p)
}

// rawLanding returns the storage an n-byte raw payload of the given kind can
// be read into as it stands — dst's slice, grown to fit — when dst points at
// a slice of exactly that element type whose storage is the wire encoding.
func rawLanding(kind byte, n int, dst any) ([]byte, bool) {
	switch p := dst.(type) {
	case *[]float64:
		return growView(p, n, 8, kind == rawFloat64)
	case *[]int:
		return growView(p, n, 8, kind == rawInt)
	case *[]int64:
		return growView(p, n, 8, kind == rawInt64)
	case *[]int32:
		return growView(p, n, 4, kind == rawInt32)
	case *[]float32:
		return growView(p, n, 4, kind == rawFloat32)
	case *[]byte:
		return growView(p, n, 1, kind == rawBytes)
	}
	return nil, false
}

// growSlice returns s resized to n elements, reusing its backing array when
// the capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// rawDecode materializes a raw payload as a fresh value of its sent type:
// the fallback when the receiver's pointer type does not match (the value is
// then gob round-tripped so mismatch behavior is identical to the serialized
// path).
func rawDecode(kind byte, data []byte) (any, error) {
	switch kind {
	case rawFloat64:
		return rawDecodeAs[float64](kind, data), nil
	case rawInt:
		return rawDecodeAs[int](kind, data), nil
	case rawInt64:
		return rawDecodeAs[int64](kind, data), nil
	case rawInt32:
		return rawDecodeAs[int32](kind, data), nil
	case rawFloat32:
		return rawDecodeAs[float32](kind, data), nil
	case rawBytes:
		return rawDecodeAs[byte](kind, data), nil
	case rawBool:
		return rawDecodeAs[bool](kind, data), nil
	}
	return nil, fmt.Errorf("mpi: unknown raw payload kind %d", kind)
}

func rawDecodeAs[T any](kind byte, data []byte) any {
	var s []T
	rawDecodeInto(kind, data, &s)
	return s
}

// wireBufs recycles payload buffers between the framing layer's encode,
// forward, and decode sites. A channel freelist instead of a sync.Pool:
// Put-ting a []byte into a sync.Pool heap-allocates the slice header every
// time (defeating the zero-alloc receive loop), while channel operations
// copy the header by value. The freelist is deliberately small and refuses
// oversized buffers so an 8 MB benchmark sweep cannot pin hundreds of
// megabytes of dead capacity.
var wireBufs = make(chan []byte, 32)

// maxPooledBuf bounds the capacity the freelist will retain.
const maxPooledBuf = 2 << 20

// getWireBuf returns a length-n buffer, reusing a pooled one when a large
// enough candidate is available. Too-small candidates are dropped rather
// than recycled: the freelist is FIFO, so putting a small buffer back just
// cycles it to the tail and every large-message get would malloc forever
// after a payload-size increase. Dropping lets the pool converge to the
// current working size within a few dozen messages.
func getWireBuf(n int) []byte {
	for tries := 0; tries < 2; tries++ {
		select {
		case b := <-wireBufs:
			if cap(b) >= n {
				return b[:n]
			}
		default:
			return make([]byte, n)
		}
	}
	return make([]byte, n)
}

// putWireBuf returns a buffer to the freelist, dropping it when the list is
// full or the buffer is outside the retention bound.
func putWireBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	select {
	case wireBufs <- b[:0]:
	default:
	}
}
