package forestfire

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/shm"
)

// This file implements the second parallelization strategy for the fire
// simulation: domain decomposition. Instead of distributing independent
// Monte Carlo trials (SweepMPI), one large forest is split into row slabs,
// one per rank, and the fire front crosses slab boundaries through halo
// exchanges over a Cartesian topology — the stencil-computation pattern
// the materials point advanced students toward.
//
// To make the decomposition verifiable, ignition decisions come from a
// counter-based hash of (seed, step, attacking cell, attacked cell) rather
// than a sequential RNG stream. Every decomposition of the same forest
// therefore burns exactly the same trees in exactly the same number of
// steps, and the tests pin the distributed run against the sequential one
// cell for cell.

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// igniteDecision returns a uniform [0,1) value determined entirely by the
// (seed, step, from, to) tuple.
func igniteDecision(seed int64, step, from, to int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(step))
	h = splitmix64(h ^ uint64(from))
	h = splitmix64(h ^ uint64(to))
	// 53 random bits into the mantissa range.
	return float64(h>>11) / float64(1<<53)
}

// SimulateHash burns one forest using hash-based ignition decisions: the
// sequential reference for the domain-decomposed version.
func SimulateHash(rows, cols int, prob float64, seed int64) TrialResult {
	grid := make([]cellState, rows*cols)
	center := (rows/2)*cols + cols/2
	grid[center] = stateBurning
	burning := []int{center}

	steps := 0
	burned := 0
	for len(burning) > 0 {
		steps++
		var next []int
		for _, cell := range burning {
			r, c := cell/cols, cell%cols
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				n := nr*cols + nc
				if grid[n] == stateTree && igniteDecision(seed, steps, cell, n) < prob {
					grid[n] = stateBurning
					next = append(next, n)
				}
			}
			grid[cell] = stateBurned
			burned++
		}
		burning = next
	}
	return TrialResult{
		BurnedFraction: float64(burned) / float64(rows*cols),
		Steps:          steps,
	}
}

// Ignition attempts are carried as flat []int pairs — attack i is
// (pairs[2i], pairs[2i+1]) = (global id of the burning cell, global id of
// the attacked cell). A flat int slice is on the runtime's typed fast-path
// whitelist and the TCP raw-framing whitelist, so the halo exchange moves
// as one memcpy-shaped payload instead of a gob encoding of a struct slice.

// tagHalo is the halo exchange's message tag.
const tagHalo = 11

// slab is one rank's share of the decomposed forest: the global rows
// [lo, hi), their cells, the cells burning at the top of the next step, and
// how many of the slab's cells have burned. Every MPI variant steps one
// slab; they differ only in the order they call its methods.
type slab struct {
	rows, cols int
	prob       float64
	seed       int64
	lo, hi     int
	cells      []cellState // indexed by global cell id offset to the slab start
	burning    []int       // global ids
	burned     int
}

// newSlab validates the grid and allocates this rank's slab, all trees.
func newSlab(c *mpi.Comm, rows, cols int, prob float64, seed int64) (*slab, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("forestfire: grid must be at least 1x1")
	}
	lo, hi := shm.StaticRange(rows, c.Rank(), c.Size())
	return &slab{rows: rows, cols: cols, prob: prob, seed: seed, lo: lo, hi: hi,
		cells: make([]cellState, (hi-lo)*cols)}, nil
}

func (s *slab) owns(cell int) bool {
	r := cell / s.cols
	return r >= s.lo && r < s.hi
}

func (s *slab) at(cell int) *cellState { return &s.cells[cell-s.lo*s.cols] }

// ignite lights the center tree on the slab that owns it.
func (s *slab) ignite() {
	if center := (s.rows/2)*s.cols + s.cols/2; s.owns(center) {
		*s.at(center) = stateBurning
		s.burning = append(s.burning, center)
	}
}

// attacks is one step's ignition attempts, as flat (from, to) pairs,
// routed by the slab that owns the attacked cell.
type attacks struct{ local, down, up []int }

// burn marks one burning cell burned and routes its four ignition attempts:
// to this slab, to the slab below (lower rows) or to the slab above.
func (s *slab) burn(cell int, a *attacks) {
	r, col := cell/s.cols, cell%s.cols
	for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := r+d[0], col+d[1]
		if nr < 0 || nr >= s.rows || nc < 0 || nc >= s.cols {
			continue
		}
		to := nr*s.cols + nc
		switch {
		case s.owns(to):
			a.local = append(a.local, cell, to)
		case nr < s.lo:
			a.down = append(a.down, cell, to)
		default:
			a.up = append(a.up, cell, to)
		}
	}
	*s.at(cell) = stateBurned
	s.burned++
}

// apply applies one batch of step's attempts against this slab, appending
// the cells they ignite to next; the hash makes the outcome identical to
// the sequential run regardless of order.
func (s *slab) apply(step int, pairs []int, next *[]int) {
	for i := 0; i+1 < len(pairs); i += 2 {
		from, to := pairs[i], pairs[i+1]
		if !s.owns(to) {
			continue // a mis-routed attack would be a bug upstream
		}
		if *s.at(to) == stateTree && igniteDecision(s.seed, step, from, to) < s.prob {
			*s.at(to) = stateBurning
			*next = append(*next, to)
		}
	}
}

// result sums the slabs' burned counts into the run's TrialResult (slabs
// partition the rows, so each burned cell is counted exactly once).
func (s *slab) result(c *mpi.Comm, steps int) (TrialResult, error) {
	burnedTotal, err := mpi.Allreduce(c, s.burned, mpi.Combine[int](mpi.Sum))
	if err != nil {
		return TrialResult{}, err
	}
	return TrialResult{
		BurnedFraction: float64(burnedTotal) / float64(s.rows*s.cols),
		Steps:          steps,
	}, nil
}

// run is the blocking step loop, from `steps` completed steps to the end of
// the fire. A non-nil save is called at the top of every step, after the
// termination check: every rank is at the same step count there.
func (s *slab) run(c *mpi.Comm, cart *mpi.Cart, steps int, save func(steps int) error) (TrialResult, error) {
	for {
		// Lockstep termination check: does any rank still have fire?
		anyBurning, err := mpi.Allreduce(c, boolToInt(len(s.burning) > 0), mpi.Combine[int](mpi.Max))
		if err != nil {
			return TrialResult{}, err
		}
		if anyBurning == 0 {
			break
		}
		if save != nil {
			if err := save(steps); err != nil {
				return TrialResult{}, err
			}
		}
		steps++

		var a attacks
		for _, cell := range s.burning {
			s.burn(cell, &a)
		}
		// Halo exchange of boundary attacks (empty slices cross too, to
		// keep every rank's message pattern identical each step).
		var fromDown, fromUp []int
		if _, _, err := cart.SendrecvShift(0, tagHalo, a.down, a.up, &fromDown, &fromUp); err != nil {
			return TrialResult{}, err
		}
		var next []int
		s.apply(steps, a.local, &next)
		s.apply(steps, fromDown, &next)
		s.apply(steps, fromUp, &next)
		s.burning = next
	}
	return s.result(c, steps)
}

// SimulateDomainMPI burns one forest split into row slabs across the
// communicator's ranks, exchanging boundary ignition attempts with
// neighbouring slabs each step. Every rank returns the identical
// TrialResult, which equals SimulateHash's for the same arguments.
func SimulateDomainMPI(c *mpi.Comm, rows, cols int, prob float64, seed int64) (TrialResult, error) {
	s, err := newSlab(c, rows, cols, prob, seed)
	if err != nil {
		return TrialResult{}, err
	}
	cart, err := mpi.NewCart(c, []int{c.Size()}, nil)
	if err != nil {
		return TrialResult{}, err
	}
	s.ignite()
	return s.run(c, cart, 0, nil)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
