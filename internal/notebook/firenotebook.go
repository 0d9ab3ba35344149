package notebook

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/exemplars"
	"repro/internal/mpi"
)

// ForestFireNotebook builds the module's second-hour Jupyter notebook: the
// "Jupyter forest fire simulation" served from the Chameleon cluster (the
// paper's reference [16]). Where the first-hour Colab notebook demonstrates
// message-passing *concepts* on one core, this one demonstrates *speedup*:
// the same Monte Carlo sweep is launched at increasing process counts so
// learners watch the wall time fall on a real parallel platform.
func ForestFireNotebook() *Notebook {
	nb := &Notebook{Title: "forest_fire_simulation.ipynb"}
	nb.Cells = append(nb.Cells,
		&Cell{Type: Markdown, Source: "# Forest Fire Simulation\n\n" +
			"A forest is a grid of trees; lightning strikes the center tree; " +
			"fire spreads to each neighbouring tree with probability p, and a " +
			"burning tree burns out after one time step. Sweeping p and " +
			"averaging many Monte Carlo trials exposes a phase transition in " +
			"how much of the forest burns. The trials are independent, so " +
			"they distribute perfectly across MPI processes — run the cells " +
			"below and watch the timing change with -np."},
		&Cell{Type: Code, Source: "%%writefile fire.py\n" + firePython},
	)
	for _, np := range []int{1, 2, 4, 8} {
		nb.Cells = append(nb.Cells, &Cell{
			Type:   Shell,
			Source: fmt.Sprintf("!mpirun -np %d python fire.py", np),
		})
	}
	return nb
}

// firePython is the mpi4py rendering of the sweep the cell saves; the
// runtime executes the Go twin below.
const firePython = `from mpi4py import MPI
import random, time

ROWS = COLS = 21
TRIALS = 40
PROBS = [i / 10 for i in range(1, 11)]

def burn_once(prob, rng):
    # ... fire spread on a ROWS x COLS grid, returns fraction burned ...
    pass

def main():
    comm = MPI.COMM_WORLD
    id = comm.Get_rank()
    numProcesses = comm.Get_size()
    start = MPI.Wtime()
    # each process simulates its share of the trials for every probability
    # and a reduction averages them at the root
    ...

main()
`

// BindForestFire installs the fire notebook's program binding: the forest
// fire exemplar's message-passing form, whose defaults are the sweep the
// saved fire.py describes; rank 0 prints the burn curve.
func BindForestFire(rt *Runtime) {
	fire, _ := exemplars.Lookup("forestfire") // in the catalog by construction
	rt.Bind("fire.py", func(w io.Writer, c *mpi.Comm) error { return fire.Body(w, fire.Defaults)(c) })
}

// RunFireNotebook executes the fire notebook against a launcher and
// returns the concatenated shell-cell outputs — a convenience for the
// workshop simulator and the notebook command.
func RunFireNotebook(launch Launcher) (string, error) {
	rt := NewRuntime(launch)
	BindForestFire(rt)
	nb := ForestFireNotebook()
	if err := rt.RunAll(nb); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, cell := range nb.Cells {
		if cell.Type == Shell {
			fmt.Fprintf(&b, ">>> %s\n%s\n", cell.Source, cell.Output)
		}
	}
	return b.String(), nil
}
