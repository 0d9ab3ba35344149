package mpi

import (
	"fmt"
	"reflect"
	"testing"
)

func TestCartValidation(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		if _, err := NewCart(c, nil, nil); err == nil {
			return fmt.Errorf("empty dims accepted")
		}
		if _, err := NewCart(c, []int{2, 2}, nil); err == nil {
			return fmt.Errorf("2x2 grid accepted for 6 ranks")
		}
		if _, err := NewCart(c, []int{0, 6}, nil); err == nil {
			return fmt.Errorf("zero dimension accepted")
		}
		if _, err := NewCart(c, []int{2, 3}, []bool{true}); err == nil {
			return fmt.Errorf("mismatched periodic flags accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRoundTrip(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		ct, err := NewCart(c, []int{2, 3}, nil)
		if err != nil {
			return err
		}
		coords := ct.coords()
		want := []int{c.Rank() / 3, c.Rank() % 3} // row-major
		if !reflect.DeepEqual(coords, want) {
			return fmt.Errorf("rank %d coords %v, want %v", c.Rank(), coords, want)
		}
		if back := ct.rankOf(coords); back != c.Rank() {
			return fmt.Errorf("rankOf(Coords) = %d for rank %d", back, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftNonPeriodic(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		ct, err := NewCart(c, []int{4}, nil)
		if err != nil {
			return err
		}
		down, up, err := ct.shift(0, 1)
		if err != nil {
			return err
		}
		wantDown, wantUp := c.Rank()-1, c.Rank()+1
		if wantDown < 0 {
			wantDown = ProcNull
		}
		if wantUp > 3 {
			wantUp = ProcNull
		}
		if down != wantDown || up != wantUp {
			return fmt.Errorf("rank %d shift = (%d, %d), want (%d, %d)", c.Rank(), down, up, wantDown, wantUp)
		}
		if _, _, err := ct.shift(5, 1); err == nil {
			return fmt.Errorf("out-of-range dimension accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftPeriodicWraps(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		ct, err := NewCart(c, []int{4}, []bool{true})
		if err != nil {
			return err
		}
		down, up, err := ct.shift(0, 1)
		if err != nil {
			return err
		}
		if down != (c.Rank()+3)%4 || up != (c.Rank()+1)%4 {
			return fmt.Errorf("rank %d periodic shift = (%d, %d)", c.Rank(), down, up)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendrecvShiftHaloExchange: the 1-D halo exchange, each rank ending up
// with the value its down neighbour sent up and the value its up neighbour
// sent down, on an open line and on periodic rings. On rings of one and two
// ranks both neighbours are the same rank, sending both values under one tag.
func TestSendrecvShiftHaloExchange(t *testing.T) {
	for _, tc := range []struct {
		name     string
		np       int
		periodic bool
	}{
		{"open-np5", 5, false},
		{"ring-np1", 1, true},
		{"ring-np2", 2, true},
		{"ring-np3", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			np := tc.np
			err := Run(np, func(c *Comm) error {
				ct, err := NewCart(c, []int{np}, []bool{tc.periodic})
				if err != nil {
					return err
				}
				r := c.Rank()
				fromDown, fromUp := -1, -1
				hasDown, hasUp, err := ct.SendrecvShift(0, 7, r*100+1, r*100+2, &fromDown, &fromUp)
				if err != nil {
					return err
				}
				down, up := r-1, r+1
				if tc.periodic {
					down, up = (r+np-1)%np, (r+1)%np
				}
				if down >= 0 {
					if !hasDown || fromDown != down*100+2 {
						return fmt.Errorf("rank %d fromDown = %d (has=%v), want %d, rank %d's up value", r, fromDown, hasDown, down*100+2, down)
					}
				} else if hasDown {
					return fmt.Errorf("rank 0 received from a nonexistent down neighbour")
				}
				if up < np {
					if !hasUp || fromUp != up*100+1 {
						return fmt.Errorf("rank %d fromUp = %d (has=%v), want %d, rank %d's down value", r, fromUp, hasUp, up*100+1, up)
					}
				} else if hasUp {
					return fmt.Errorf("last rank received from a nonexistent up neighbour")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCart2DGridNeighbours(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		ct, err := NewCart(c, []int{2, 3}, nil)
		if err != nil {
			return err
		}
		// Along dimension 0 (rows of the 2x3 grid), rank r's up neighbour
		// is r+3 when it exists.
		down, up, err := ct.shift(0, 1)
		if err != nil {
			return err
		}
		if c.Rank() < 3 {
			if down != ProcNull || up != c.Rank()+3 {
				return fmt.Errorf("rank %d dim0 shift = (%d, %d)", c.Rank(), down, up)
			}
		} else {
			if down != c.Rank()-3 || up != ProcNull {
				return fmt.Errorf("rank %d dim0 shift = (%d, %d)", c.Rank(), down, up)
			}
		}
		if ct.Comm() != c {
			return fmt.Errorf("Comm() identity lost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCartShiftEdgeCases: the boundary geometry MPI codes trip over —
// one-rank worlds, unit dimensions, zero/negative/oversized displacements —
// table-driven with every rank's expected (source, dest) pair spelled out.
// Nonperiodic edges must say ProcNull, never a wrapped or clamped rank.
func TestCartShiftEdgeCases(t *testing.T) {
	null := ProcNull
	cases := []struct {
		name     string
		np       int
		dims     []int
		periodic []bool
		dim      int
		disp     int
		want     map[int][2]int // rank -> {source (down), dest (up)}
	}{
		{"one-rank-world-nonperiodic", 1, []int{1}, nil, 0, 1,
			map[int][2]int{0: {null, null}}},
		{"one-rank-world-periodic-self-neighbour", 1, []int{1}, []bool{true}, 0, 1,
			map[int][2]int{0: {0, 0}}},
		{"zero-displacement-is-self", 3, []int{3}, nil, 0, 0,
			map[int][2]int{0: {0, 0}, 1: {1, 1}, 2: {2, 2}}},
		{"negative-displacement-mirrors-positive", 3, []int{3}, nil, 0, -1,
			map[int][2]int{0: {1, null}, 1: {2, 0}, 2: {null, 1}}},
		{"displacement-past-the-edge", 3, []int{3}, nil, 0, 5,
			map[int][2]int{0: {null, null}, 1: {null, null}, 2: {null, null}}},
		{"displacement-wraps-modulo-periodic", 3, []int{3}, []bool{true}, 0, 5,
			map[int][2]int{0: {1, 2}, 1: {2, 0}, 2: {0, 1}}},
		{"unit-dimension-nonperiodic", 4, []int{1, 4}, nil, 0, 1,
			map[int][2]int{0: {null, null}, 1: {null, null}, 2: {null, null}, 3: {null, null}}},
		{"unit-dimension-periodic-self-neighbour", 4, []int{1, 4}, []bool{true, false}, 0, 1,
			map[int][2]int{0: {0, 0}, 1: {1, 1}, 2: {2, 2}, 3: {3, 3}}},
		{"column-shift-at-row-edges", 4, []int{2, 2}, nil, 1, 1,
			map[int][2]int{0: {null, 1}, 1: {0, null}, 2: {null, 3}, 3: {2, null}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := Run(tc.np, func(c *Comm) error {
				ct, err := NewCart(c, tc.dims, tc.periodic)
				if err != nil {
					return err
				}
				down, up, err := ct.shift(tc.dim, tc.disp)
				if err != nil {
					return err
				}
				want := tc.want[c.Rank()]
				if down != want[0] || up != want[1] {
					return fmt.Errorf("rank %d: Shift(%d, %d) = (%d, %d), want (%d, %d)",
						c.Rank(), tc.dim, tc.disp, down, up, want[0], want[1])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCartRankOfEdgeCases: out-of-grid coordinates on a nonperiodic
// dimension are ProcNull (-1), mismatched coordinate arity is rejected,
// and deep negative coordinates wrap correctly when periodic.
func TestCartRankOfEdgeCases(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		open, err := NewCart(c, []int{4}, nil)
		if err != nil {
			return err
		}
		for _, coords := range [][]int{{-1}, {4}, {100}, {0, 0}, {}} {
			if r := open.rankOf(coords); r != -1 {
				return fmt.Errorf("rankOf(%v) = %d on open [4], want -1", coords, r)
			}
		}
		ring, err := NewCart(c, []int{4}, []bool{true})
		if err != nil {
			return err
		}
		for coord, want := range map[int]int{-1: 3, -9: 3, 4: 0, 11: 3} {
			if r := ring.rankOf([]int{coord}); r != want {
				return fmt.Errorf("rankOf(%d) = %d on ring [4], want %d", coord, r, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendrecvShiftNoNeighbours: on a one-rank nonperiodic world the halo
// exchange is a no-op that reports no traffic and must not touch the
// destination buffers.
func TestSendrecvShiftNoNeighbours(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		ct, err := NewCart(c, []int{1}, nil)
		if err != nil {
			return err
		}
		fromDown, fromUp := -7.0, -7.0
		hasDown, hasUp, err := ct.SendrecvShift(0, 3, 1.0, 2.0, &fromDown, &fromUp)
		if err != nil {
			return err
		}
		if hasDown || hasUp {
			return fmt.Errorf("phantom neighbours: hasDown=%v hasUp=%v", hasDown, hasUp)
		}
		if fromDown != -7.0 || fromUp != -7.0 {
			return fmt.Errorf("buffers touched: fromDown=%v fromUp=%v", fromDown, fromUp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
