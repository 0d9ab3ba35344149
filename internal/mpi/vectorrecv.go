package mpi

import (
	"errors"
	"fmt"
	"unsafe"
)

// Zero-copy segment receives for the vector collectives. A ring or
// halving/doubling exchange receives a segment only to fold or copy it into
// the accumulator and discard it — so materializing the payload into a
// scratch slice first is a whole wasted pass over the bytes (plus the
// allocation). A copy step names its segment as the receive's destination
// (recvSegCopy). A fold step reads the payload where it already lives
// whenever the frame permits it: the typed fast-path value on the local
// transport (always a private copy), or an in-place element view of the raw
// little-endian bytes — which for an shm rendezvous frame is the sender's
// staging block in shared memory, extending the protocol's
// copy-exactly-once promise to its natural limit: the one copy is the fold
// itself. Gob payloads and type mismatches fall back to the ordinary
// decode path through the caller's scratch buffer.

// errVecSegLen reports a received segment whose element count does not match
// the receiver's slot.
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

// recvSegInto receives the next (source, tag) message and folds the payload
// into seg with the caller's slice-level fold (foldWith for an arbitrary
// combine, opFold for a built-in operator) — in place from a view when the
// frame allows it, via the caller's scratch buffer otherwise. When the
// received element count differs from len(seg) nothing is applied and the
// error is segLenErr's.
func recvSegInto[T any](c *Comm, source, tag int, seg []T, scratch *[]T, apply func(dst, in []T), format string) error {
	var f frame
	if err := c.waitFrame("Recv", source, tag, nil, &f, nil); err != nil {
		return err
	}
	in, viewed := frameSegView[T](f)
	if !viewed {
		if err := f.decodeInto(scratch); err != nil {
			return err
		}
		in = *scratch
	}
	var err error
	if len(in) != len(seg) {
		err = segLenErr(format, source, len(in), len(seg))
	} else {
		apply(seg, in)
	}
	if viewed {
		f.release() // decodeInto has released a decoded frame's buffer
	}
	return err
}

// segLenErr is errVecSegLen, phrased by the collective's format when it has
// one: source rank, elements received, elements wanted.
func segLenErr(format string, source, got, want int) error {
	if format == "" {
		return errVecSegLen
	}
	return fmt.Errorf(format, source, got, want)
}

// recvSegCopy receives a segment over seg, and exchangeSeg does so as one
// symmetric step that also sends out to dest (Comm.exchange). The receive
// names seg itself as its destination — a view with the capacity clipped, so
// that nothing can spill past it — and a block of the right length therefore
// lands in the caller's array, copied there by its sender or read there off
// the socket, with no buffer in between; one that arrived before the receive
// was posted is decoded into the same view.
func recvSegCopy[T any](c *Comm, source, tag int, seg []T, format string) error {
	into := seg[:len(seg):len(seg)]
	_, err := c.recv(source, tag, &into)
	return segLanded(seg, into, source, format, err)
}

func exchangeSeg[T any](c *Comm, dest int, out []T, source, tag int, seg []T, format string) error {
	into := seg[:len(seg):len(seg)]
	_, err := c.exchange(dest, tag, out, source, tag, &into)
	return segLanded(seg, into, source, format, err)
}

// segLanded checks what a receive into a view of seg left there; a payload
// that took other storage (another sent type, decoded through gob) is copied
// over.
func segLanded[T any](seg, into []T, source int, format string, err error) error {
	switch {
	case err != nil:
		return err
	case len(into) != len(seg):
		return segLenErr(format, source, len(into), len(seg))
	case len(seg) > 0 && &into[0] != &seg[0]:
		copy(seg, into)
	}
	return nil
}
