package forestfire

import "testing"

// TestSimulateHashSharedMatchesSequential pins the shared-memory domain
// decomposition against the sequential hash-based reference, cell count and
// step count, across spread probabilities from a fire that dies at once to
// one that crosses every slab boundary, and across thread counts including
// more threads than rows (the surplus threads own empty slabs). Own-slab
// attempts are decided in the generation pass and cross-slab ones after the
// barrier, so the grid and thread counts put cells under attack from both.
func TestSimulateHashSharedMatchesSequential(t *testing.T) {
	const rows, cols = 15, 17
	for _, prob := range []float64{0.1, 0.3, 0.45, 0.55, 0.7, 0.9} {
		for _, seed := range []int64{3, 44} {
			want := SimulateHash(rows, cols, prob, seed)
			for _, nt := range []int{1, 2, 3, 4, 5, 7, 8, rows + 4} {
				got := SimulateHashShared(rows, cols, prob, seed, nt)
				if got != want {
					t.Errorf("SimulateHashShared(prob=%g, seed=%d, nt=%d) = %+v, want %+v",
						prob, seed, nt, got, want)
				}
			}
		}
	}
}

func TestSimulateHashSharedTinyGrids(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {2, 2}} {
		want := SimulateHash(dims[0], dims[1], 0.7, 9)
		got := SimulateHashShared(dims[0], dims[1], 0.7, 9, 4)
		if got != want {
			t.Errorf("grid %dx%d: shared = %+v, want %+v", dims[0], dims[1], got, want)
		}
	}
	if r := SimulateHashShared(0, 5, 0.5, 1, 2); r != (TrialResult{}) {
		t.Errorf("degenerate grid returned %+v, want zero result", r)
	}
}

// The exemplar speedup-curve kernel: one whole-forest burn at high spread
// probability, domain-decomposed across the team.
func BenchmarkSimulateHashShared(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateHashShared(61, 61, 0.85, 7, 0)
	}
}
