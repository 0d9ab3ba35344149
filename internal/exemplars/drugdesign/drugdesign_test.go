package drugdesign

import (
	"hash/fnv"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/shm"
)

func TestScoreKnownValues(t *testing.T) {
	cases := []struct {
		ligand, protein string
		want            int
	}{
		{"", "abc", 0},
		{"abc", "", 0},
		{"abc", "abc", 3},
		{"axc", "abc", 2},
		{"cat", "the cat in the hat", 3},
		{"xyz", "abc", 0},
		{"aa", "aaaa", 2},
		{"abcbdab", "bdcaba", 4}, // classic LCS example
	}
	for _, c := range cases {
		if got := Score(c.ligand, c.protein); got != c.want {
			t.Errorf("Score(%q, %q) = %d, want %d", c.ligand, c.protein, got, c.want)
		}
	}
}

func TestScoreProperties(t *testing.T) {
	// Score is symmetric and bounded by the shorter string's length, and
	// a string scores its own length against itself.
	prop := func(aRaw, bRaw []byte) bool {
		a := sanitize(aRaw)
		b := sanitize(bRaw)
		s := Score(a, b)
		if s != Score(b, a) {
			return false
		}
		if s > len(a) || s > len(b) {
			return false
		}
		return Score(a, a) == len(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(raw []byte) string {
	var b strings.Builder
	for _, c := range raw {
		b.WriteByte(Alphabet[int(c)%len(Alphabet)])
		if b.Len() >= 12 {
			break
		}
	}
	return b.String()
}

func TestGenerateLigandsDeterministic(t *testing.T) {
	p := DefaultParams()
	a, err := GenerateLigands(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateLigands(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same params produced different pools")
	}
	if len(a) != p.NumLigands {
		t.Fatalf("pool size %d", len(a))
	}
	for _, l := range a {
		if len(l) < 1 || len(l) > p.MaxLigandLen {
			t.Fatalf("ligand %q outside length bounds", l)
		}
	}
	p2 := p
	p2.Seed++
	c, _ := GenerateLigands(p2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical pools")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Protein: "x", NumLigands: 0, MaxLigandLen: 3},
		{Protein: "x", NumLigands: 5, MaxLigandLen: 0},
		{Protein: "", NumLigands: 5, MaxLigandLen: 3},
	}
	for i, p := range bad {
		if _, err := GenerateLigands(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
		if _, err := Sequential(p); err == nil {
			t.Errorf("case %d: Sequential accepted invalid params", i)
		}
		if _, err := Shared(p, 2, shm.Dynamic(1)); err == nil {
			t.Errorf("case %d: Shared accepted invalid params", i)
		}
	}
}

func TestSequentialResultShape(t *testing.T) {
	res, err := Sequential(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxScore < 1 {
		t.Fatalf("max score = %d", res.MaxScore)
	}
	if len(res.Ligands) == 0 {
		t.Fatal("no best ligands reported")
	}
	for i := 1; i < len(res.Ligands); i++ {
		if res.Ligands[i-1] > res.Ligands[i] {
			t.Fatal("best ligands not sorted")
		}
	}
	for _, l := range res.Ligands {
		if Score(l, DefaultParams().Protein) != res.MaxScore {
			t.Fatalf("reported ligand %q does not achieve the max score", l)
		}
	}
	if !strings.Contains(res.String(), "maximal score") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestSharedMatchesSequentialAllSchedules(t *testing.T) {
	p := DefaultParams()
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	schedules := []shm.Schedule{shm.Static(), shm.ChunksOf1(), shm.Dynamic(1), shm.Dynamic(4), shm.Guided(1)}
	for _, sched := range schedules {
		for _, threads := range []int{1, 2, 4, 8} {
			got, err := Shared(p, threads, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sched=%v threads=%d: %+v != %+v", sched, threads, got, want)
			}
		}
	}
}

func TestMPIStaticMatchesSequential(t *testing.T) {
	p := DefaultParams()
	want, _ := Sequential(p)
	for _, np := range []int{1, 2, 3, 5} {
		err := mpi.Run(np, func(c *mpi.Comm) error {
			got, err := MPIStatic(c, p)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("np=%d rank=%d: %+v != %+v", np, c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMPIMasterWorkerMatchesSequential(t *testing.T) {
	p := DefaultParams()
	want, _ := Sequential(p)
	for _, np := range []int{1, 2, 4, 7} {
		err := mpi.Run(np, func(c *mpi.Comm) error {
			got, err := MPIMasterWorker(c, p)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("np=%d rank=%d: %+v != %+v", np, c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMPIMasterWorkerMoreWorkersThanLigands(t *testing.T) {
	p := DefaultParams()
	p.NumLigands = 3
	want, _ := Sequential(p)
	err := mpi.Run(6, func(c *mpi.Comm) error {
		got, err := MPIMasterWorker(c, p)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: %+v != %+v", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResultConsistencyProperty(t *testing.T) {
	// For arbitrary small parameter sets, all five implementations agree.
	prop := func(seedRaw uint16, nRaw, lenRaw uint8) bool {
		p := Params{
			Protein:      DefaultProtein,
			NumLigands:   int(nRaw%30) + 1,
			MaxLigandLen: int(lenRaw%8) + 1,
			Seed:         int64(seedRaw),
		}
		want, err := Sequential(p)
		if err != nil {
			return false
		}
		got, err := Shared(p, 3, shm.Dynamic(1))
		if err != nil || !reflect.DeepEqual(got, want) {
			return false
		}
		var mismatch atomic.Bool
		err = mpi.Run(3, func(c *mpi.Comm) error {
			mw, err := MPIMasterWorker(c, p)
			if err != nil || !reflect.DeepEqual(mw, want) {
				mismatch.Store(true)
			}
			return nil
		})
		return err == nil && !mismatch.Load()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateLigandsGolden: the pool is part of every variant's contract
// (and of the gate's equality checks), so building it from one arena must
// leave it string for string what the per-ligand builders produced. FNV-64a
// over the NUL-joined pool; constants computed at PR 15's tree.
func TestGenerateLigandsGolden(t *testing.T) {
	gate := Params{Protein: DefaultProtein, NumLigands: 2000, MaxLigandLen: 6, Seed: 1}
	for _, tc := range []struct {
		name string
		p    Params
		want uint64
	}{
		{"default", DefaultParams(), 0x69a593e8b23d1e1d},
		{"gate-seed1", gate, 0x4914126976cfa0cb},
	} {
		pool, err := GenerateLigands(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(strings.Join(pool, "\x00")))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: pool hashes to %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// The exemplar at the size and schedule the gating benchmark's
// shm-exemplars-t2 workload times it: 2 000 ligands, Dynamic(1).
func BenchmarkDrugDesign(b *testing.B) {
	p := Params{Protein: DefaultProtein, NumLigands: 2000, MaxLigandLen: 6, Seed: 1}
	run := func(name string, f func() (Result, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("seq", func() (Result, error) { return Sequential(p) })
	run("shared-t2", func() (Result, error) { return Shared(p, 2, shm.Dynamic(1)) })
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestAllocationsDoNotScaleWithPool: the pool is two allocations (the string
// headers and one byte arena) and each thread scores with one scratch buffer,
// so a ten times larger pool allocates what a small one does, give or take
// the growth steps of the per-thread best lists (how many depends on the ties
// the seed happens to produce, a few either way); and a scorer that has seen
// the protein scores without allocating at all.
func TestAllocationsDoNotScaleWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	allocs := func(n int) float64 {
		p := Params{Protein: DefaultProtein, NumLigands: n, MaxLigandLen: 6, Seed: 1}
		return testing.AllocsPerRun(20, func() {
			if _, err := Shared(p, 2, shm.Dynamic(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(2000); large > small+8 || large > 40 {
		t.Errorf("Shared allocates %v times for 200 ligands, %v for 2000", small, large)
	}

	var sc scorer
	sc.score("warm", DefaultProtein)
	if got := testing.AllocsPerRun(100, func() { sc.score("thecat", DefaultProtein) }); got != 0 {
		t.Errorf("warmed scorer allocates %v times per score", got)
	}
}
