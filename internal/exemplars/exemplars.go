// Package exemplars is the catalog of the exemplar applications, whose
// algorithms live in the subpackages, as runnable programs. mpirun, the
// scheduler, benchlab and both modules' delivery resolve an exemplar here,
// so it takes the same arguments and prints the same line everywhere.
package exemplars

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/exemplars/pagerank"
	"repro/internal/mpi"
	"repro/internal/shm"
)

// Args are an exemplar's parameters, by key. Each is a positive integer.
type Args map[string]int

// Exemplar is one catalog entry. Each form runs the exemplar and returns its
// report; a nil form does not exist for this exemplar.
type Exemplar struct {
	Name     string // the program name every launcher accepts
	Title    string // what the modules call it
	Defaults Args   // the arguments its MPI and shared forms take
	// RecoverKeys are the Defaults its recovery form reads; that form also
	// takes ckpt_every.
	RecoverKeys []string

	// MPI is the message-passing form, called on every rank. Never nil.
	MPI func(c *mpi.Comm, a Args) (string, error)
	// Recover is the checkpoint-restart form: it saves to store every
	// a["ckpt_every"] units of work and survives rank failures (Comm.Recover).
	Recover func(c *mpi.Comm, a Args, store ckpt.Store) (string, error)
	// Shared is the shared-memory form on a team of threads.
	Shared func(a Args, threads int) (string, error)
}

// dd and ff are the subpackages' defaults, which the args override.
var dd, ff = drugdesign.DefaultParams(), forestfire.DefaultParams()

// catalog holds the entries in the order a learner meets them.
var catalog = []Exemplar{
	{
		Name: "integration", Title: "numerical integration",
		Defaults: Args{"n": 1_000_000},
		MPI: func(c *mpi.Comm, a Args) (string, error) {
			pi, err := integration.TrapezoidMPI(c, integration.QuarterCircle, 0, 1, a["n"])
			return fmt.Sprintf("pi ≈ %.9f (error %.2g) across %d processes", pi, integration.AbsError(pi), c.Size()), err
		},
		Shared: func(a Args, threads int) (string, error) {
			pi, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, a["n"], threads)
			return fmt.Sprintf("pi ≈ %.9f (error %.2g) with %d threads", pi, integration.AbsError(pi), threads), err
		},
	},
	{
		Name: "drugdesign", Title: "drug design",
		Defaults:    Args{"ligands": dd.NumLigands, "max_len": dd.MaxLigandLen},
		RecoverKeys: []string{"ligands", "max_len"},
		MPI: func(c *mpi.Comm, a Args) (string, error) {
			res, err := drugdesign.MPIMasterWorker(c, ddParams(a))
			return res.String(), err
		},
		Recover: func(c *mpi.Comm, a Args, store ckpt.Store) (string, error) {
			res, err := drugdesign.MPIMasterWorkerRecover(c, ddParams(a), store, a["ckpt_every"])
			return res.String(), err
		},
		Shared: func(a Args, threads int) (string, error) {
			res, err := drugdesign.Shared(ddParams(a), threads, shm.Dynamic(1))
			return res.String(), err
		},
	},
	{
		Name: "forestfire", Title: "forest fire",
		Defaults:    Args{"rows": ff.Rows, "cols": ff.Cols, "trials": ff.Trials},
		RecoverKeys: []string{"rows", "cols"},
		MPI: func(c *mpi.Comm, a Args) (string, error) {
			pts, err := forestfire.SweepMPI(c, ffParams(a))
			return burnCurve(pts, fmt.Sprintf("%d processes", c.Size())), err
		},
		// The recovery form burns one forest, domain-decomposed, so a rank
		// failure lands in the middle of a halo exchange.
		Recover: func(c *mpi.Comm, a Args, store ckpt.Store) (string, error) {
			const prob, seed = 0.6, 17
			res, err := forestfire.SimulateDomainRecover(c, a["rows"], a["cols"], prob, seed, store, a["ckpt_every"])
			return fmt.Sprintf("forest fire %dx%d p=%.2f: burned %.1f%% in %d steps",
				a["rows"], a["cols"], prob, 100*res.BurnedFraction, res.Steps), err
		},
		Shared: func(a Args, threads int) (string, error) {
			pts, err := forestfire.SweepShared(ffParams(a), threads)
			return burnCurve(pts, fmt.Sprintf("%d threads", threads)), err
		},
	},
	{
		Name: "pagerank", Title: "PageRank",
		MPI: func(c *mpi.Comm, _ Args) (string, error) {
			g := prGraph()
			pr, err := pagerank.PageRankMPI(c, g, 0.85, prIters)
			return prLine(g, pr) + fmt.Sprintf(" across %d processes", c.Size()), err
		},
		Recover: func(c *mpi.Comm, a Args, store ckpt.Store) (string, error) {
			g := prGraph()
			pr, err := pagerank.PageRankRecover(c, g, 0.85, prIters, store, a["ckpt_every"])
			return prLine(g, pr), err
		},
	},
}

// All returns the catalog in teaching order.
func All() []Exemplar { return slices.Clone(catalog) }

// Lookup finds an exemplar by name.
func Lookup(name string) (Exemplar, error) {
	if i := slices.IndexFunc(catalog, func(e Exemplar) bool { return e.Name == name }); i >= 0 {
		return catalog[i], nil
	}
	return Exemplar{}, fmt.Errorf("exemplars: no exemplar named %q", name)
}

// Args applies key=value overrides to the defaults of the MPI and shared
// forms or, with recover, of the recovery form. A key that form does not
// read, or a value that is not a positive integer, is an error naming the
// key.
func (e Exemplar) Args(set map[string]string, recover bool) (Args, error) {
	a, form := maps.Clone(e.Defaults), e.Name
	if recover {
		// Every recovery form checkpoints every 5 units of work by default.
		a, form = Args{"ckpt_every": 5}, e.Name+"'s recovery form"
		for _, k := range e.RecoverKeys {
			a[k] = e.Defaults[k]
		}
	}
	for k, v := range set {
		n, err := strconv.Atoi(v)
		if _, ok := a[k]; !ok || err != nil || n < 1 {
			return nil, fmt.Errorf("%s takes positive integer args %v (the defaults), not %s=%q", form, a, k, v)
		}
		a[k] = n
	}
	return a, nil
}

// Body is the message-passing form as a per-rank body; the lowest live rank,
// rank 0 unless a rank failed, prints the report to w.
func (e Exemplar) Body(w io.Writer, a Args) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		line, err := e.MPI(c, a)
		return printLowest(w, c, line, err)
	}
}

// RecoverBody is the checkpoint-restart form as a per-rank body. The lowest
// live rank prints the report and "(label: live/size ranks)", where label is
// "survivors" in a world that shrinks and "width" in one that relaunches.
func (e Exemplar) RecoverBody(w io.Writer, a Args, store ckpt.Store, label string) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		line, err := e.Recover(c, a, store)
		line += fmt.Sprintf(" (%s: %d/%d ranks)", label, c.Size()-len(c.FailedRanks()), c.Size())
		return printLowest(w, c, line, err)
	}
}

// RunShared runs the shared-memory form on threads and prints the report.
func (e Exemplar) RunShared(w io.Writer, threads int, a Args) error {
	line, err := e.Shared(a, threads)
	if err == nil {
		fmt.Fprintln(w, line)
	}
	return err
}

// printLowest prints a successful run's report from the lowest live rank.
func printLowest(w io.Writer, c *mpi.Comm, line string, err error) error {
	if err == nil && c.Rank() == lowestSurvivor(c) {
		fmt.Fprintln(w, line)
	}
	return err
}

// lowestSurvivor is the smallest world rank this process believes alive:
// after a shrink, rank 0 may be dead.
func lowestSurvivor(c *mpi.Comm) int {
	lowest := 0
	for _, r := range c.FailedRanks() { // sorted
		if r == lowest {
			lowest++
		}
	}
	return lowest
}

func ddParams(a Args) drugdesign.Params {
	p := dd
	p.NumLigands, p.MaxLigandLen = a["ligands"], a["max_len"]
	return p
}

func ffParams(a Args) forestfire.Params {
	p := ff
	p.Rows, p.Cols, p.Trials = a["rows"], a["cols"], a["trials"]
	return p
}

func burnCurve(pts []forestfire.SweepPoint, from string) string {
	return "burn curve from " + from + ":\n" + strings.TrimSuffix(forestfire.FormatCurve(pts), "\n")
}

// prGraph is a skewed graph big enough that the irregular exchange carries
// real traffic, small enough to stay instant at the command line; PageRank
// runs prIters iterations over it.
func prGraph() *pagerank.Graph { return pagerank.Gen(2000, 8, 42) }

const prIters = 30

// prLine names the top-ranked vertex and the probability mass, which a
// correct run keeps at 1.
func prLine(g *pagerank.Graph, pr []float64) string {
	best, top, sum := 0, 0.0, 0.0
	for v, p := range pr {
		sum += p
		if p > top {
			best, top = v, p
		}
	}
	return fmt.Sprintf("pagerank over %d vertices / %d edges: top vertex %d (score %.6f), mass %.6f",
		g.N, g.Edges(), best, top, sum)
}
