package forestfire

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
)

func TestIgniteDecisionDeterministicAndUniform(t *testing.T) {
	a := igniteDecision(7, 3, 100, 101)
	b := igniteDecision(7, 3, 100, 101)
	if a != b {
		t.Fatal("decision not deterministic")
	}
	if a < 0 || a >= 1 {
		t.Fatalf("decision %v outside [0,1)", a)
	}
	// Distinct tuples decorrelate: crude uniformity check over many draws.
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := igniteDecision(7, i%13, i, i+1)
		if v < 0 || v >= 1 {
			t.Fatalf("draw %d = %v", i, v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("mean of draws = %v, want ~0.5", mean)
	}
}

func TestSimulateHashEdgeProbabilities(t *testing.T) {
	r := SimulateHash(11, 11, 0, 5)
	if r.BurnedFraction != 1.0/121.0 || r.Steps != 1 {
		t.Fatalf("p=0: %+v", r)
	}
	r = SimulateHash(9, 9, 1, 5)
	if r.BurnedFraction != 1 {
		t.Fatalf("p=1: %+v", r)
	}
}

// TestDomainMatchesSequentialExactly is the headline invariant: the
// domain-decomposed fire burns exactly the same forest as the sequential
// hash-based simulation, for every rank count, at every probability.
func TestDomainMatchesSequentialExactly(t *testing.T) {
	grids := []struct{ rows, cols int }{{1, 1}, {5, 5}, {16, 9}, {21, 21}}
	probs := []float64{0, 0.3, 0.5, 0.7, 1}
	for _, g := range grids {
		for _, prob := range probs {
			want := SimulateHash(g.rows, g.cols, prob, 31)
			for _, np := range []int{1, 2, 3, 5, 8} {
				var mu sync.Mutex
				results := map[int]TrialResult{}
				err := mpi.Run(np, func(c *mpi.Comm) error {
					got, err := SimulateDomainMPI(c, g.rows, g.cols, prob, 31)
					if err != nil {
						return err
					}
					mu.Lock()
					results[c.Rank()] = got
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("grid %dx%d p=%v np=%d: %v", g.rows, g.cols, prob, np, err)
				}
				for rank, got := range results {
					if got != want {
						t.Fatalf("grid %dx%d p=%v np=%d rank=%d: %+v != sequential %+v",
							g.rows, g.cols, prob, np, rank, got, want)
					}
				}
			}
		}
	}
}

func TestDomainMatchesSequentialProperty(t *testing.T) {
	prop := func(seedRaw uint16, probRaw, npRaw, sizeRaw uint8) bool {
		rows := int(sizeRaw%15) + 3
		cols := int(sizeRaw%11) + 3
		prob := float64(probRaw%101) / 100
		np := int(npRaw%6) + 1
		seed := int64(seedRaw)
		want := SimulateHash(rows, cols, prob, seed)
		match := true
		var mu sync.Mutex
		err := mpi.Run(np, func(c *mpi.Comm) error {
			got, err := SimulateDomainMPI(c, rows, cols, prob, seed)
			if err != nil {
				return err
			}
			if got != want {
				mu.Lock()
				match = false
				mu.Unlock()
			}
			return nil
		})
		return err == nil && match
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainMoreRanksThanRows(t *testing.T) {
	// 3-row forest on 6 ranks: half the slabs are empty but the run must
	// still agree with the sequential fire.
	want := SimulateHash(3, 9, 0.8, 4)
	err := mpi.Run(6, func(c *mpi.Comm) error {
		got, err := SimulateDomainMPI(c, 3, 9, 0.8, 4)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("rank %d: %+v != %+v", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDomainValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := SimulateDomainMPI(c, 0, 5, 0.5, 1); err == nil {
			return fmt.Errorf("0-row grid accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
