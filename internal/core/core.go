// Package core is the top-level API of the reproduction: it assembles the
// paper's two teaching modules (shared-memory on the Raspberry Pi,
// distributed-memory on Colab plus a cluster), delivers them end to end,
// and models the 2.5-day faculty-development workshop whose assessment is
// the paper's evaluation.
//
// The shape follows the paper's Section III: each module is a self-paced,
// two-hour unit pairing a delivery vehicle (virtual handout or notebook)
// with a patternlet catalog, exemplar applications, and one or more
// execution platforms.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars"
	"repro/internal/handout"
	"repro/internal/notebook"
	"repro/internal/patternlets"
	"repro/internal/survey"
)

// Module is one of the paper's two teaching units.
type Module struct {
	Name     string
	Paradigm patternlets.Paradigm
	// Duration is the lab-period budget; both modules are designed for
	// two hours.
	Duration time.Duration

	// Handout is the Runestone-style virtual handout (shared-memory
	// module); nil for the distributed module.
	Handout *handout.Module
	// Notebook is the Colab notebook (distributed module); nil for the
	// shared-memory module.
	Notebook *notebook.Notebook

	// Patternlets is the module's catalog, in teaching order.
	Patternlets []patternlets.Patternlet
	// Exemplars names the module's closing applications (internal/exemplars).
	Exemplars []string
	// Platforms are the execution environments the module offers.
	Platforms []cluster.Platform
}

// SharedMemoryModule assembles the paper's Section III-A module: OpenMP
// patternlets on the Raspberry Pi, delivered through the virtual handout,
// closing with the numerical-integration and drug-design exemplars.
func SharedMemoryModule() *Module {
	return &Module{
		Name:        "Multicore Computing on the Raspberry Pi",
		Paradigm:    patternlets.SharedMemory,
		Duration:    2 * time.Hour,
		Handout:     handout.RaspberryPiModule(),
		Patternlets: patternlets.ByParadigm(patternlets.SharedMemory),
		Exemplars:   []string{"integration", "drugdesign"},
		Platforms:   []cluster.Platform{cluster.RaspberryPi()},
	}
}

// DistributedModule assembles the paper's Section III-B module: mpi4py
// patternlets in a Colab notebook for the first hour, then an exemplar
// (forest fire or drug design) on a real parallel platform — the
// Jupyter-fronted Chameleon cluster or the St. Olaf 64-core VM.
func DistributedModule() *Module {
	return &Module{
		Name:        "Distributed Computing with MPI",
		Paradigm:    patternlets.MessagePassing,
		Duration:    2 * time.Hour,
		Notebook:    notebook.MPI4PyPatternletsNotebook(),
		Patternlets: patternlets.ByParadigm(patternlets.MessagePassing),
		Exemplars:   []string{"forestfire", "drugdesign"},
		Platforms:   []cluster.Platform{cluster.ColabVM(), cluster.Chameleon(4, 16), cluster.StOlafVM()},
	}
}

// Modules returns both modules in workshop order.
func Modules() []*Module {
	return []*Module{SharedMemoryModule(), DistributedModule()}
}

// Deliver runs a module end to end, writing a transcript to w: the handout
// or notebook content, every patternlet's live output, and the exemplars on
// the module's primary platform. This is the integration path the cmd
// tools and the workshop simulation share. workers is the thread count /
// process count used for the hands-on runs.
func (m *Module) Deliver(w io.Writer, workers int) error {
	if workers < 1 {
		return fmt.Errorf("core: workers must be >= 1, got %d", workers)
	}
	fmt.Fprintf(w, "=== %s (%s) ===\n\n", m.Name, m.Duration)

	switch m.Paradigm {
	case patternlets.SharedMemory:
		handout.RenderTOC(w, m.Handout)
		for _, p := range m.Patternlets {
			fmt.Fprintf(w, "\n--- patternlet %s (%s) ---\n", p.Name, p.Pattern)
			if err := patternlets.RunShared(p, w, workers); err != nil {
				return fmt.Errorf("core: patternlet %s: %w", p.Name, err)
			}
		}
		return m.deliverExemplars(w, workers)
	case patternlets.MessagePassing:
		return m.deliverDistributed(w, workers)
	default:
		return fmt.Errorf("core: unknown paradigm %q", m.Paradigm)
	}
}

// deliverDistributed runs the distributed module: the notebook on the
// modeled Colab VM, then the exemplars on the module's cluster platform.
func (m *Module) deliverDistributed(w io.Writer, workers int) error {
	colab := m.Platforms[0]
	rt := notebook.NewRuntime(colab.Launch)
	if err := notebook.BindPatternlets(rt); err != nil {
		return err
	}
	if err := rt.RunAll(m.Notebook); err != nil {
		return err
	}
	for _, cell := range m.Notebook.Cells {
		switch cell.Type {
		case notebook.Markdown:
			fmt.Fprintf(w, "\n%s\n", cell.Source)
		case notebook.Code, notebook.Shell:
			fmt.Fprintf(w, "\n>>> %s\n%s", firstLine(cell.Source), cell.Output)
		}
	}
	return m.deliverExemplars(w, workers)
}

// deliverExemplars runs the module's closing exemplars in the module's form:
// shared-memory on workers threads, or message-passing on workers ranks of
// the module's cluster platform.
func (m *Module) deliverExemplars(w io.Writer, workers int) error {
	for _, name := range m.Exemplars {
		e, err := exemplars.Lookup(name)
		if err != nil {
			return err
		}
		if m.Paradigm == patternlets.SharedMemory {
			fmt.Fprintf(w, "\n--- exemplar: %s ---\n", e.Title)
			err = e.RunShared(w, workers, e.Defaults)
		} else {
			fmt.Fprintf(w, "\n--- exemplar: %s on %s ---\n", e.Title, m.Platforms[1])
			err = m.Platforms[1].Launch(workers, e.Body(w, e.Defaults))
		}
		if err != nil {
			return fmt.Errorf("core: exemplar %s: %w", name, err)
		}
	}
	return nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// Workshop models the paper's 2.5-day virtual faculty-development workshop
// (Section IV): two hands-on morning sessions — one per module — and the
// surveyed participant cohort.
type Workshop struct {
	Name         string
	Days         float64
	Sessions     []Session
	Participants []survey.Participant
}

// Session is one workshop block.
type Session struct {
	Day    int
	Title  string
	Module *Module // nil for discussion/demonstration sessions
}

// Summer2020Workshop assembles the July 2020 workshop the paper evaluates.
func Summer2020Workshop() *Workshop {
	shm := SharedMemoryModule()
	dist := DistributedModule()
	return &Workshop{
		Name: "CSinParallel Summer 2020 Virtual Workshop",
		Days: 2.5,
		Sessions: []Session{
			{Day: 1, Title: "OpenMP on Raspberry Pi", Module: shm},
			{Day: 1, Title: "Demonstrations and discussion: teaching PDC", Module: nil},
			{Day: 2, Title: "MPI & Distr. Cluster Computing", Module: dist},
			{Day: 2, Title: "CSinParallel.org project overview", Module: nil},
			{Day: 3, Title: "Planning for fall; wrap-up", Module: nil},
		},
		Participants: survey.Workshop2020(),
	}
}

// Assessment recomputes the paper's published evaluation from the raw
// survey data: Table II and the two pre/post figures.
func (w *Workshop) Assessment() (survey.TableIIResult, survey.PrePostResult, survey.PrePostResult, error) {
	t2 := survey.TableII(w.Participants)
	f3, err := survey.Figure3(w.Participants)
	if err != nil {
		return t2, survey.PrePostResult{}, survey.PrePostResult{}, err
	}
	f4, err := survey.Figure4(w.Participants)
	if err != nil {
		return t2, f3, survey.PrePostResult{}, err
	}
	return t2, f3, f4, nil
}
