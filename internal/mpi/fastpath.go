package mpi

import (
	"encoding"
	"encoding/gob"
	"reflect"
	"sync"
)

// The zero-serialization fast path. When every rank lives in one process
// (the local transport), a message does not need a wire format at all: the
// runtime copies the Go value from the sender to the receiver directly.
// This file decides which values qualify and performs the copies.
//
// Semantics are pinned to the serialized path: the receiver observes a value
// it exclusively owns (mutating it never affects the sender and vice versa),
// and a type mismatch between sender and receiver behaves exactly as it
// would have under gob — including gob's cross-numeric-type flexibility and
// its error text — because mismatches fall back to a gob round trip.

// typedValue reports whether v is on the fast-path whitelist and, if so,
// whether it is a slice, which travels borrowed (frame.borrowed) and is
// copied where it arrives. Scalars and strings are copied by the interface
// boxing itself; structs qualify when a shallow copy is provably a full copy
// (only exported scalar/string/array-of-scalar fields, no custom gob
// encoding), and boxing one into v already made that copy.
func typedValue(v any) (slice, ok bool) {
	switch v.(type) {
	case bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, complex64, complex128, string:
		return false, true
	case []float64, []int, []byte, []int64, []int32, []float32, []bool, []string:
		return true, true
	case nil:
		// Let the gob path report its usual nil-payload error.
		return false, false
	}
	return false, shallowCopyable(reflect.TypeOf(v))
}

// settle ends a borrowed slice's loan, so the frame may outlive the Send that
// carries it: the elements are copied straight into the receive pointer dst
// when it points to a slice of exactly the sent type — reusing its backing
// array when the capacity allows, as rawDecodeInto does on the wire paths —
// and the frame is marked landed; otherwise (another type, no destination)
// Val becomes a private copy. A []string never lands: its Status.Bytes
// needs the elements.
func (f *frame) settle(dst any) {
	if !f.borrowed {
		return
	}
	switch x := f.Val.(type) {
	case []float64:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []int:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []byte:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []int64:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []int32:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []float32:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []bool:
		f.Val, f.landed = settled(x, dst, f.Val)
	case []string:
		f.Val, f.landed = settled(x, nil, f.Val)
	}
	f.borrowed, f.lent = false, false
}

// settled returns val itself (x, already boxed) and true after copying x into
// *dst, or a private copy of x and false. A nil *[]T is left for the receiver
// to trip over, on its own goroutine.
func settled[T any](x []T, dst, val any) (any, bool) {
	if p, ok := dst.(*[]T); ok && p != nil {
		*p = growSlice(*p, len(x))
		copy(*p, x)
		return val, true
	}
	return append([]T(nil), x...), false
}

// shallowCache memoizes the per-type whitelist decision (reflect.Type -> bool).
var shallowCache sync.Map

var (
	gobEncoderType      = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	binaryMarshalerType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
)

// shallowCopyable reports whether assigning a value of type t copies all of
// its state, so the copy can cross a rank boundary without serialization
// while preserving gob-path semantics. Unexported fields disqualify a struct
// (gob would silently drop them; a shallow copy would smuggle them through),
// as do custom gob/binary encoders (their wire behavior is not assignment).
func shallowCopyable(t reflect.Type) bool {
	if c, ok := shallowCache.Load(t); ok {
		return c.(bool)
	}
	ok := shallowCopyableUncached(t)
	shallowCache.Store(t, ok)
	return ok
}

func shallowCopyableUncached(t reflect.Type) bool {
	if t.Implements(gobEncoderType) || t.Implements(binaryMarshalerType) {
		return false
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return shallowCopyable(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || !shallowCopyable(f.Type) {
				return false
			}
		}
		return true
	}
	return false
}

// assignTyped stores a fast-path payload into the receive pointer dst when
// the types match exactly, reporting whether it did. The common patternlet
// payload shapes avoid reflection entirely. A false return means the caller
// must fall back to the gob round trip (which handles gob's legal
// cross-type decodes and produces gob's errors for the illegal ones).
func assignTyped(val any, dst any) bool {
	switch p := dst.(type) {
	case *int:
		return assignAs(p, val)
	case *int64:
		return assignAs(p, val)
	case *float64:
		return assignAs(p, val)
	case *bool:
		return assignAs(p, val)
	case *string:
		return assignAs(p, val)
	case *[]float64:
		return assignAs(p, val)
	case *[]int:
		return assignAs(p, val)
	case *[]byte:
		return assignAs(p, val)
	}
	rd := reflect.ValueOf(dst)
	if rd.Kind() != reflect.Pointer || rd.IsNil() {
		return false
	}
	rv := reflect.ValueOf(val)
	if !rv.IsValid() || rv.Type() != rd.Type().Elem() {
		return false
	}
	rd.Elem().Set(rv)
	return true
}

// assignAs stores val in *p when it is a T.
func assignAs[T any](p *T, val any) bool {
	v, ok := val.(T)
	if ok {
		*p = v
	}
	return ok
}

// typedSize reports the in-memory payload size of a fast-path value: what
// Status.Bytes and the MessageCounter record for messages that never had a
// wire encoding. Slices count their element storage, strings their length,
// everything else its shallow reflect size.
func typedSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case []byte:
		return len(x)
	case []bool:
		return len(x)
	case []float64:
		return 8 * len(x)
	case []int:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case []int32:
		return 4 * len(x)
	case []float32:
		return 4 * len(x)
	case []string:
		n := 0
		for _, s := range x {
			n += len(s)
		}
		return n
	case bool:
		return 1
	}
	if t := reflect.TypeOf(v); t != nil {
		return int(t.Size())
	}
	return 0
}

// decodeInto materializes the frame's payload into the pointer v, whichever
// representation the frame carries; a landed frame's is there already.
// Fast-path frames whose stored type does not exactly match *v are
// round-tripped through gob so the observable behavior (numeric widening,
// error text) is identical to the serialized path.
func (f *frame) decodeInto(v any) error {
	if f.landed {
		return nil
	}
	if f.Raw != rawNone {
		if rawDecodeInto(f.Raw, f.Data, v) {
			f.releaseData()
			return nil
		}
		// The receiver asked for a different type: materialize the sent
		// value and round-trip it through gob, so numeric widening and error
		// text are identical to the serialized path.
		val, err := rawDecode(f.Raw, f.Data)
		f.releaseData()
		if err != nil {
			return err
		}
		data, err := encodeValue(val)
		if err != nil {
			return err
		}
		return decodeValue(data, v)
	}
	if !f.HasVal {
		return decodeValue(f.Data, v)
	}
	if assignTyped(f.Val, v) {
		return nil
	}
	data, err := encodeValue(f.Val)
	if err != nil {
		return err
	}
	return decodeValue(data, v)
}

// payloadSize reports the frame's payload size: wire bytes for serialized
// and raw frames, in-memory size for fast-path frames.
func (f *frame) payloadSize() int {
	if f.HasVal {
		return typedSize(f.Val)
	}
	return len(f.Data)
}

// status summarizes the frame for Recv results.
func (f *frame) status() Status {
	return Status{Source: f.Src, Tag: f.Tag, Bytes: f.payloadSize()}
}
