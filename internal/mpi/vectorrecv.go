package mpi

import (
	"errors"
	"fmt"
	"unsafe"
)

// Segment receives for the collectives. A ring or halving/doubling exchange
// receives a segment only to fold or copy it into the accumulator. A copy
// step names its segment as the receive's destination (recvSegCopy). A fold
// step names a scratch buffer, which a typed block lands in, and reads a raw
// one where it already lives: an in-place element view of the little-endian
// bytes, which for an shm rendezvous frame is the sender's staging block in
// shared memory, so that the one copy is the fold itself.

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

// recvSegInto receives the next (source, tag) message and folds the payload
// into seg with the caller's slice-level fold — from a raw view when the
// frame allows it, else out of the scratch buffer the receive names as its
// destination. When the received element count differs from len(seg)
// nothing is applied and the error is segLenErr's.
func recvSegInto[T any](c *Comm, source, tag int, seg []T, scratch *[]T, apply func(dst, in []T), format string) error {
	var f frame
	if err := c.waitFrame("Recv", source, tag, scratch, &f, nil); err != nil {
		return err
	}
	in, viewed := rawSliceView[T](f)
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
// was posted is decoded into the same view. sendSeg is the send alone.
func recvSegCopy[T any](c *Comm, source, tag int, seg []T, format string) error {
	p := &cellsOf[T](c).peers[source]
	p.into = seg[:len(seg):len(seg)]
	_, err := c.recv(source, tag, &p.into)
	return segLanded(seg, &p.into, source, format, err)
}

func exchangeSeg[T any](c *Comm, dest, sendTag int, out []T, source, recvTag int, seg []T, format string) error {
	peers := cellsOf[T](c).peers
	to, from := &peers[dest], &peers[source]
	to.out, from.into = out, seg[:len(seg):len(seg)]
	_, err := c.exchange(dest, sendTag, to.box, source, recvTag, &from.into)
	to.out = nil
	return segLanded(seg, &from.into, source, format, err)
}

func sendSeg[T any](c *Comm, dest, tag int, out []T) error {
	p := &cellsOf[T](c).peers[dest]
	p.out = out
	err := c.sendReserved(dest, tag, p.box)
	p.out = nil
	return err
}

// segCells are a communicator's reusable state for the segment steps of one
// element type, so that a step allocates nothing: per peer, the block sent to
// it and its box, and the view a receive from it lands in; and the scratch a
// block to be folded lands in. They serve the calls a rank makes on
// the communicator, one at a time, as MPI has collectives made.
type segCells[T any] struct {
	peers   []peerCell[T] // by rank in the communicator
	scratch []T           // grown to the largest block folded
}

type peerCell[T any] struct {
	out, into []T
	box       any // out, boxed once (boxAt)
}

// cellsOf returns c's cells for T, made on first use.
func cellsOf[T any](c *Comm) *segCells[T] {
	for _, x := range c.cells {
		if s, ok := x.(*segCells[T]); ok {
			return s
		}
	}
	s := &segCells[T]{peers: make([]peerCell[T], c.Size())}
	for i := range s.peers {
		s.peers[i].box = boxAt(&s.peers[i].out)
	}
	c.cells = append(c.cells, s)
	return s
}

// boxAt returns an interface value holding the slice *p without copying its
// header to the heap, as a conversion would: the value reads *p when read. So
// *p may change only while no frame names the value, which holds once the
// call that sent it returns (frame.borrowed; a landed frame names its
// destination).
func boxAt[T any](p *[]T) any {
	v := any([]T(nil)) // a nil slice converts without allocating
	(*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] = unsafe.Pointer(p)
	return v
}

// segLanded checks what a receive into a view of seg left in *view, and lets
// the view go; a payload that took other storage (another sent type, decoded
// through gob) is copied over.
func segLanded[T any](seg []T, view *[]T, source int, format string, err error) error {
	into := *view
	*view = nil
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
