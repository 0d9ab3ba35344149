package mpi

// Op names a built-in reduction operator, mirroring MPI_SUM, MPI_PROD,
// MPI_MAX, MPI_MIN, MPI_LAND, and MPI_LOR. The generic collectives accept an
// arbitrary combine function; Op supplies the standard ones.
type Op int

const (
	// Sum adds values.
	Sum Op = iota
	// Prod multiplies values.
	Prod
	// Max keeps the larger value.
	Max
	// Min keeps the smaller value.
	Min
)

// String names the operator as MPI spells it.
func (op Op) String() string {
	switch op {
	case Sum:
		return "MPI_SUM"
	case Prod:
		return "MPI_PROD"
	case Max:
		return "MPI_MAX"
	case Min:
		return "MPI_MIN"
	default:
		return "MPI_OP(?)"
	}
}

// Number constrains the built-in operators to ordered numeric types.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Combine applies op to a pair of numbers.
func Combine[T Number](op Op) func(a, b T) T { return opFold[T](op).combine }

// opFold returns a built-in operator's folds: loops that compile to
// straight-line arithmetic, one switch per segment, where an indirect call
// per element would make a megabyte's fold call-bound.
func opFold[T Number](op Op) opLoops[T] {
	if op < Sum || op > Min {
		panic("mpi: unknown Op")
	}
	return opLoops[T](op)
}

// opLoops is a built-in operator as a vecFold. Its fold keeps the accumulator
// on the other side of Max's and Min's comparison from combine, as the vector
// collectives always have: the two differ on NaNs and on signed zeros.
type opLoops[T Number] Op

func (op opLoops[T]) combine(a, b T) T {
	switch Op(op) {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		if a > b {
			return a
		}
		return b
	default: // Min
		if a < b {
			return a
		}
		return b
	}
}

func (op opLoops[T]) fold(dst, src, in []T) {
	dst, src = dst[:len(in)], src[:len(in)]
	switch Op(op) {
	case Sum:
		for i, x := range in {
			dst[i] = src[i] + x
		}
	case Prod:
		for i, x := range in {
			dst[i] = src[i] * x
		}
	case Max:
		for i, x := range in {
			if dst[i] = src[i]; x > src[i] {
				dst[i] = x
			}
		}
	default: // Min
		for i, x := range in {
			if dst[i] = src[i]; x < src[i] {
				dst[i] = x
			}
		}
	}
}

// CombineSlices returns an elementwise combiner for slices, the analogue of
// MPI's array reductions. It panics if the slices differ in length, which in
// MPI would be an erroneous program.
func CombineSlices[T Number](op Op) func(a, b []T) []T {
	elem := Combine[T](op)
	return func(a, b []T) []T {
		if len(a) != len(b) {
			panic("mpi: reduction buffers differ in length")
		}
		out := make([]T, len(a))
		for i := range a {
			out[i] = elem(a[i], b[i])
		}
		return out
	}
}
