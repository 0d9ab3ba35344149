//go:build amd64 || arm64 || riscv64 || loong64

package mpi

import "unsafe"

// On little-endian 64-bit platforms the in-memory element storage of the
// numeric whitelist types is byte-for-byte the wire encoding (fixed-width
// little-endian, and int is 64 bits wide), so the framing layer can write a
// slice's backing array to the connection directly and memmove incoming
// payloads into a receive buffer, instead of running a per-element
// PutUint64/Uint64 loop through an intermediate copy. rawview_portable.go is
// the build-tag complement: every other GOARCH reports no view and takes the
// element loops, which work at any width or byte order.
//
// []bool is deliberately absent: the wire format promises one byte per
// element holding exactly 0 or 1, and while the gc toolchain happens to store
// bools that way, the language does not — so bools always go through the
// normalizing loop.

// rawViewNative reports at build time that this platform's in-memory
// element layout is the wire layout, so byte payloads may also be
// reinterpreted in place as element slices (rawSliceView in vectorrecv.go).
const rawViewNative = true

// rawBytesView returns v's element storage as a byte slice aliasing v, and
// whether v has a layout-compatible view at all. The caller must finish with
// the view before returning control to the slice's owner; nothing may retain
// it.
func rawBytesView(v any) ([]byte, bool) {
	switch x := v.(type) {
	case []float64:
		return storageOf(x), true
	case []int:
		return storageOf(x), true
	case []int64:
		return storageOf(x), true
	case []int32:
		return storageOf(x), true
	case []float32:
		return storageOf(x), true
	case []byte:
		return x, true
	}
	return nil, false
}

func storageOf[T any](x []T) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), len(x)*int(unsafe.Sizeof(x[0])))
}
