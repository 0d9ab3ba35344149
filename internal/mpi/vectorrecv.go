package mpi

import (
	"errors"
	"unsafe"
)

// Zero-copy segment receives for the vector collectives. A ring or
// halving/doubling exchange receives a segment only to fold or copy it into
// the accumulator and discard it — so materializing the payload into a
// scratch slice first is a whole wasted pass over the bytes (plus the
// allocation). The helpers here read the payload where it already lives
// whenever the frame permits it: the typed fast-path value on the local
// transport (always a private copy), or an in-place element view of the raw
// little-endian bytes — which for an shm rendezvous frame is the sender's
// staging block in shared memory, extending the protocol's
// copy-exactly-once promise to its natural limit: the one copy is the fold
// itself. Serialized worlds and type mismatches fall back to the ordinary
// decode path through the caller's scratch buffer.

// errVecSegLen reports a received segment whose element count does not match
// the receiver's slot. The collectives wrap it with their own per-algorithm
// diagnostics.
var errVecSegLen = errors.New("mpi: vector segment length mismatch")

// rawSliceView reinterprets a raw frame's payload bytes as a []T aliasing
// the payload, when the platform stores T exactly as the wire does
// (rawViewNative) and the frame's raw kind matches T. []bool is excluded:
// the in-memory contract for bool is stricter than the wire's one byte, so
// bools always take the normalizing decode loop. The view is only valid
// until the frame is released.
func rawSliceView[T any](f frame) ([]T, bool) {
	if !rawViewNative || f.Raw == rawNone || f.Raw == rawBool {
		return nil, false
	}
	want, ok := rawKindOf([]T(nil))
	if !ok || want != f.Raw {
		return nil, false
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	data := f.Data
	if len(data) < size {
		// Empty payloads view as empty slices; a runt payload (shorter than
		// one element) falls back to the decode path's truncation behavior.
		return nil, len(data) == 0
	}
	if uintptr(unsafe.Pointer(&data[0]))%uintptr(unsafe.Alignof(zero)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), len(data)/size), true
}

// frameSegView returns the frame's payload as a []T readable in place, and
// whether such a view exists. The caller must finish with the view before
// releasing the frame and must not retain it.
func frameSegView[T any](f frame) ([]T, bool) {
	if f.HasVal {
		s, ok := f.Val.([]T)
		return s, ok
	}
	return rawSliceView[T](f)
}

// recvSegInto is the shared body of recvSegFold and recvSegCopy: it receives
// the next (source, tag) message and applies the payload to seg — in place
// from a view when the frame allows it, via the caller's scratch buffer
// otherwise. It returns the received element count; when that differs from
// len(seg) nothing is applied and the error is errVecSegLen for the caller
// to phrase.
func recvSegInto[T any](c *Comm, source, tag int, seg []T, scratch *[]T, apply func(dst, in []T)) (int, error) {
	if err := c.checkRank(source); err != nil {
		return 0, err
	}
	var f frame
	if err := c.waitFrame("Recv", source, tag, true, nil, &f); err != nil {
		return 0, err
	}
	if in, ok := frameSegView[T](f); ok {
		n := len(in)
		if n != len(seg) {
			f.release()
			return n, errVecSegLen
		}
		apply(seg, in)
		f.release()
		return n, nil
	}
	if err := f.decodeInto(scratch); err != nil {
		return 0, err
	}
	in := *scratch
	if len(in) != len(seg) {
		return len(in), errVecSegLen
	}
	apply(seg, in)
	return len(in), nil
}

// recvSegFold receives a segment and folds it into seg with the caller's
// slice-level fold (foldWith for an arbitrary combine, opFold for a built-in
// operator).
func recvSegFold[T any](c *Comm, source, tag int, seg []T, fold func(dst, in []T), scratch *[]T) (int, error) {
	return recvSegInto(c, source, tag, seg, scratch, fold)
}

// recvSegCopy receives a segment and copies it over seg.
func recvSegCopy[T any](c *Comm, source, tag int, seg []T, scratch *[]T) (int, error) {
	return recvSegInto(c, source, tag, seg, scratch, func(dst, in []T) {
		copy(dst, in)
	})
}
