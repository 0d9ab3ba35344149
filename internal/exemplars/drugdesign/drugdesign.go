// Package drugdesign implements the drug-design exemplar used by both of
// the paper's modules (it closes the shared-memory module and is one of the
// two second-hour choices in the distributed module). The computation is
// the CSinParallel "drug design" kernel: generate a pool of random candidate
// ligands (short strings over the amino-acid-like alphabet), score each one
// against a fixed protein by the length of their longest common
// subsequence, and report the maximum score and the ligands that achieve
// it.
//
// The workload is deliberately imbalanced — scoring cost grows with ligand
// length, and lengths vary — which is why the exemplar is the canonical
// motivation for dynamic scheduling (shared memory) and master-worker work
// distribution (message passing).
package drugdesign

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/mpi"
	"repro/internal/shm"
)

// DefaultProtein is the target the CSinParallel exemplar ships with.
const DefaultProtein = "the cat in the hat wore the hat to the cat hat party"

// Alphabet is the character set ligands are drawn from.
const Alphabet = "abcdefghijklmnopqrstuvwxyz"

// Params configures a run.
type Params struct {
	Protein      string
	NumLigands   int
	MaxLigandLen int // ligand lengths are uniform in [1, MaxLigandLen]
	Seed         int64
}

// DefaultParams mirrors the exemplar's defaults at a laptop-friendly scale.
func DefaultParams() Params {
	return Params{
		Protein:      DefaultProtein,
		NumLigands:   120,
		MaxLigandLen: 6,
		Seed:         5,
	}
}

func (p Params) validate() error {
	if p.NumLigands < 1 {
		return errors.New("drugdesign: need at least 1 ligand")
	}
	if p.MaxLigandLen < 1 {
		return errors.New("drugdesign: ligand length must be at least 1")
	}
	if p.Protein == "" {
		return errors.New("drugdesign: empty protein")
	}
	return nil
}

// Result is the outcome of a run: the best docking score and every ligand
// achieving it (sorted for determinism).
type Result struct {
	MaxScore int
	Ligands  []string
}

// String formats the result the way the exemplar prints it.
func (r Result) String() string {
	return fmt.Sprintf("maximal score is %d, achieved by ligands %s",
		r.MaxScore, strings.Join(r.Ligands, " "))
}

// GenerateLigands produces the deterministic candidate pool for the given
// parameters. Every variant (sequential, shared, MPI) scores exactly this
// pool, so their results are comparable bit for bit.
func GenerateLigands(p Params) ([]string, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	ligands := make([]string, p.NumLigands)
	// One arena holds every ligand's bytes. It is grown once to the largest
	// pool the parameters allow, so it never moves and each ligand is a
	// substring of it: the pool costs two allocations whatever its size.
	var arena strings.Builder
	arena.Grow(p.NumLigands * p.MaxLigandLen)
	for i := range ligands {
		n := 1 + rng.Intn(p.MaxLigandLen)
		start := arena.Len()
		for j := 0; j < n; j++ {
			arena.WriteByte(Alphabet[rng.Intn(len(Alphabet))])
		}
		ligands[i] = arena.String()[start:]
	}
	return ligands, nil
}

// Score computes the docking score of a ligand against a protein: the
// length of their longest common subsequence, by the classic O(len·len)
// dynamic program (two-row form).
func Score(ligand, protein string) int {
	var sc scorer
	return sc.score(ligand, protein)
}

// scorer is the LCS kernel with its two DP rows owned by the caller: a loop
// that scores many ligands keeps one scorer (one per thread or rank) and
// allocates rows only when a longer protein than any before comes along.
type scorer struct{ rows []int }

func (sc *scorer) score(ligand, protein string) int {
	if len(ligand) == 0 || len(protein) == 0 {
		return 0
	}
	w := len(protein) + 1
	if len(sc.rows) < 2*w {
		sc.rows = make([]int, 2*w)
	}
	prev, cur := sc.rows[:w], sc.rows[w:2*w]
	// Row 0 of the table is zeros; column 0 is never written in either row.
	clear(prev)
	for i := 1; i <= len(ligand); i++ {
		for j := 1; j <= len(protein); j++ {
			if ligand[i-1] == protein[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(protein)]
}

// collect folds per-ligand scores into a Result.
func collect(ligands []string, scores []int) Result {
	max := 0
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	var best []string
	for i, s := range scores {
		if s == max {
			best = append(best, ligands[i])
		}
	}
	sort.Strings(best)
	return Result{MaxScore: max, Ligands: best}
}

// Sequential scores the pool one ligand at a time: the timing baseline.
func Sequential(p Params) (Result, error) {
	ligands, err := GenerateLigands(p)
	if err != nil {
		return Result{}, err
	}
	scores := make([]int, len(ligands))
	var sc scorer
	for i, l := range ligands {
		scores[i] = sc.score(l, p.Protein)
	}
	return collect(ligands, scores), nil
}

// threadBest is one thread's running best set: the highest score it has seen
// and the indices achieving it. Padded to a cache line because the slices'
// headers are rewritten on every append and neighbouring threads' slots
// would otherwise false-share.
type threadBest struct {
	max int
	idx []int
	_   [32]byte
}

// Shared scores the pool with a team of threads under the given schedule.
// The schedule choice is the exemplar's teaching point: dynamic schedules
// absorb the length imbalance that static ones cannot.
//
// Each thread accumulates its own best set (max score seen plus the indices
// achieving it) in a cache-line-padded slot — a max-reduction with a payload —
// and the slots are merged serially after the join. Compared with the
// score-every-ligand-into-a-shared-slice version, nothing is written to
// shared memory while the loop runs and the merge is over per-thread best
// sets rather than a full O(n) rescan. The result is bit-identical to
// Sequential's collect over the same pool.
func Shared(p Params, numThreads int, sched shm.Schedule) (Result, error) {
	ligands, err := GenerateLigands(p)
	if err != nil {
		return Result{}, err
	}
	nt := shm.TeamSize(numThreads)
	if nt > len(ligands) {
		nt = len(ligands)
	}
	slots := make([]threadBest, nt)
	shm.Parallel(nt, func(tc *shm.ThreadContext) {
		b := &slots[tc.ThreadNum()]
		var sc scorer
		tc.ForNowait(len(ligands), sched, func(i int) {
			s := sc.score(ligands[i], p.Protein)
			if s > b.max {
				b.max, b.idx = s, b.idx[:0]
			}
			if s == b.max {
				b.idx = append(b.idx, i)
			}
		})
	})
	max := 0
	for i := range slots {
		if slots[i].max > max {
			max = slots[i].max
		}
	}
	var best []string
	for i := range slots {
		if slots[i].max != max {
			continue
		}
		for _, idx := range slots[i].idx {
			best = append(best, ligands[idx])
		}
	}
	sort.Strings(best)
	return Result{MaxScore: max, Ligands: best}, nil
}

// MPIStatic scores the pool with a block decomposition: each rank takes a
// contiguous slab of the pool and a vector allgather assembles the full
// score vector on every rank. Blocks concatenate in rank order — exactly
// the global score array — and the candidate pool is deterministic, so each
// rank derives the identical Result locally; the old gather-of-boxed-blocks
// at the root plus Result broadcast collapses into one bandwidth-friendly
// collective.
func MPIStatic(c *mpi.Comm, p Params) (Result, error) {
	ligands, err := GenerateLigands(p)
	if err != nil {
		return Result{}, err
	}
	lo, hi := shm.StaticRange(len(ligands), c.Rank(), c.Size())
	local := make([]int, hi-lo)
	c.Compute(func() {
		var sc scorer
		for i := lo; i < hi; i++ {
			local[i-lo] = sc.score(ligands[i], p.Protein)
		}
	})
	scores, err := mpi.AllgatherSlice(c, local)
	if err != nil {
		return Result{}, err
	}
	return collect(ligands, scores), nil
}

// Tags of the master-worker protocol.
const (
	tagTask   = 1
	tagResult = 2
	tagStop   = 3
)

// workerResult carries one scored ligand back to the master.
type workerResult struct {
	Index int
	Score int
}

// MPIMasterWorker scores the pool with dynamic work distribution: the
// master (rank 0) hands out one ligand index at a time; each worker returns
// the score and receives the next task, so long ligands and short ones
// balance automatically — the message-passing twin of the dynamic schedule.
// With a single rank it degrades to sequential scoring. Every rank returns
// the full Result.
func MPIMasterWorker(c *mpi.Comm, p Params) (Result, error) {
	ligands, err := GenerateLigands(p)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if c.Rank() == 0 {
		if res, err = runMaster(c, ligands, p.Protein, unscoredTable(len(ligands)), nil); err != nil {
			return Result{}, err
		}
	} else if err := serveTasks(c, ligands, p.Protein); err != nil {
		return Result{}, err
	}
	return mpi.Bcast(c, res, 0)
}

// unscored marks a score-table entry no worker has returned yet.
const unscored = -1

// unscoredTable is the score table of a queue no worker has started on.
func unscoredTable(n int) []int {
	scores := make([]int, n)
	for i := range scores {
		scores[i] = unscored
	}
	return scores
}

// runMaster drives the work queue: hand every unscored index of the score
// table to a worker (or score them locally when the world is one rank) and
// collect the results. A non-nil save is called after each result lands
// and, with done set, once the table is complete.
func runMaster(c *mpi.Comm, ligands []string, protein string, scores []int, save func(done bool) error) (Result, error) {
	var pending []int
	for i, s := range scores {
		if s == unscored {
			pending = append(pending, i)
		}
	}
	if c.Size() == 1 {
		// The world is just the master (it started that way or shrank to
		// it): finish the remaining work sequentially.
		c.Compute(func() {
			var sc scorer
			for _, i := range pending {
				scores[i] = sc.score(ligands[i], protein)
			}
		})
		return collect(ligands, scores), nil
	}

	next := 0 // index into pending
	outstanding := 0
	// Prime every worker with one task (or stop it if there is none), then
	// answer each result with the next task or a stop.
	assign := func(w int) error {
		if next == len(pending) {
			return c.Send(w, tagStop, 0)
		}
		i := pending[next]
		next++
		outstanding++
		return c.Send(w, tagTask, i)
	}
	for w := 1; w < c.Size(); w++ {
		if err := assign(w); err != nil {
			return Result{}, err
		}
	}
	for outstanding > 0 {
		// A dead worker never returns its task, so a wildcard receive is
		// the dangerous spot of this protocol — the runtime's ULFM rule
		// (any failed member poisons an AnySource match) turns what would
		// be a silent hang into the retryable error handled one level up.
		var wr workerResult
		st, err := c.Recv(mpi.AnySource, tagResult, &wr)
		if err != nil {
			return Result{}, err
		}
		scores[wr.Index] = wr.Score
		outstanding--
		if save != nil {
			if err := save(false); err != nil {
				return Result{}, err
			}
		}
		if err := assign(st.Source); err != nil {
			return Result{}, err
		}
	}
	if save != nil {
		if err := save(true); err != nil {
			return Result{}, err
		}
	}
	return collect(ligands, scores), nil
}

// serveTasks is the worker side of the master-worker protocol: score each
// ligand index the master sends, return the score, stop on tagStop.
func serveTasks(c *mpi.Comm, ligands []string, protein string) error {
	var sc scorer
	for {
		var idx int
		st, err := c.Recv(0, mpi.AnyTag, &idx)
		if err != nil {
			return err
		}
		if st.Tag == tagStop {
			return nil
		}
		var score int
		c.Compute(func() { score = sc.score(ligands[idx], protein) })
		if err := c.Send(0, tagResult, workerResult{Index: idx, Score: score}); err != nil {
			return err
		}
	}
}
