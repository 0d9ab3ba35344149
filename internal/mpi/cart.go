package mpi

import "fmt"

// Cart is a Cartesian process topology over a communicator, the MPI
// facility (MPI_Cart_create and friends) that stencil codes such as the
// domain-decomposed forest fire use to find their neighbours.
type Cart struct {
	comm *Comm
	dims []int
	// periodic[d] wraps neighbours around dimension d.
	periodic []bool
}

// NewCart builds a Cartesian view of the communicator with the given
// dimension sizes. The product of dims must equal the communicator size;
// rank order is row-major, as in MPI. periodic may be nil (all false) or
// one flag per dimension.
func NewCart(c *Comm, dims []int, periodic []bool) (*Cart, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mpi: cartesian topology needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("mpi: cartesian dimension %d is not positive", d)
		}
		n *= d
	}
	if n != c.Size() {
		return nil, fmt.Errorf("mpi: cartesian grid %v holds %d ranks, communicator has %d", dims, n, c.Size())
	}
	if periodic == nil {
		periodic = make([]bool, len(dims))
	}
	if len(periodic) != len(dims) {
		return nil, fmt.Errorf("mpi: %d periodicity flags for %d dimensions", len(periodic), len(dims))
	}
	return &Cart{
		comm:     c,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}, nil
}

// Comm returns the underlying communicator.
func (ct *Cart) Comm() *Comm { return ct.comm }

// coords returns the calling rank's coordinates: MPI_Cart_coords.
func (ct *Cart) coords() []int { return ct.coordsOf(ct.comm.Rank()) }

// coordsOf returns any rank's coordinates.
func (ct *Cart) coordsOf(rank int) []int {
	coords := make([]int, len(ct.dims))
	for d := len(ct.dims) - 1; d >= 0; d-- {
		coords[d] = rank % ct.dims[d]
		rank /= ct.dims[d]
	}
	return coords
}

// rankOf returns the rank at the given coordinates: MPI_Cart_rank. It
// returns -1 for coordinates that fall outside a non-periodic dimension
// (the MPI_PROC_NULL case); periodic dimensions wrap.
func (ct *Cart) rankOf(coords []int) int {
	if len(coords) != len(ct.dims) {
		return -1
	}
	rank := 0
	for d, c := range coords {
		if ct.periodic[d] {
			c = ((c % ct.dims[d]) + ct.dims[d]) % ct.dims[d]
		} else if c < 0 || c >= ct.dims[d] {
			return -1
		}
		rank = rank*ct.dims[d] + c
	}
	return rank
}

// ProcNull is the neighbour value for "no neighbour", mirroring
// MPI_PROC_NULL.
const ProcNull = -1

// shift returns the ranks of the neighbours displacement steps down and up
// dimension dim: MPI_Cart_shift. Missing neighbours (at a non-periodic
// edge) are ProcNull.
func (ct *Cart) shift(dim, displacement int) (source, dest int, err error) {
	if dim < 0 || dim >= len(ct.dims) {
		return ProcNull, ProcNull, fmt.Errorf("mpi: cartesian dimension %d out of range", dim)
	}
	coords := ct.coords()
	down := append([]int(nil), coords...)
	up := append([]int(nil), coords...)
	down[dim] -= displacement
	up[dim] += displacement
	return ct.rankOf(down), ct.rankOf(up), nil
}

// SendrecvShift exchanges values with the two neighbours along a
// dimension: the halo-exchange step of a stencil computation. sendUp goes
// to the +1 neighbour and sendDown to the −1 neighbour; the values
// received from those directions are decoded into fromUp and fromDown.
// Missing neighbours are skipped and leave the corresponding pointer
// untouched; hasUp/hasDown report what arrived.
func (ct *Cart) SendrecvShift(dim, tag int, sendDown, sendUp any, fromDown, fromUp any) (hasDown, hasUp bool, err error) {
	down, up, err := ct.shift(dim, 1)
	if err != nil {
		return false, false, err
	}
	// Post sends first (buffered), then receives: deadlock-free in any
	// topology.
	if down != ProcNull {
		if err := ct.comm.Send(down, tag, sendDown); err != nil {
			return false, false, err
		}
	}
	if up != ProcNull {
		if err := ct.comm.Send(up, tag, sendUp); err != nil {
			return false, false, err
		}
	}
	// Receive from up first: on a periodic ring of one or two ranks both
	// neighbours are one rank, and its first frame is its down value.
	if up != ProcNull {
		if _, err := ct.comm.Recv(up, tag, fromUp); err != nil {
			return false, false, err
		}
		hasUp = true
	}
	if down != ProcNull {
		if _, err := ct.comm.Recv(down, tag, fromDown); err != nil {
			return false, hasUp, err
		}
		hasDown = true
	}
	return hasDown, hasUp, nil
}
