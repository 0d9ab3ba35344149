package patternlets

import (
	"fmt"
	"io"

	"repro/internal/mpi"
	"repro/internal/shm"
)

// The message-passing catalog: Go renderings of the CSinParallel mpi4py
// patternlets the Colab notebook works through (00spmd, 01sendRecv, ...).
// RunRank is one rank's body; the runner executes it SPMD-style on the mpi
// runtime.

func init() {
	register(Patternlet{
		Name:     "mpiSpmd",
		Paradigm: MessagePassing,
		Pattern:  "SPMD",
		Summary:  "every process greets with its rank, the world size, and its host",
		Explanation: "The fundamental structure of an MPI program: the same code " +
			"runs in every process; rank, size, and processor name " +
			"differentiate behaviour. This is the cell the notebook runs " +
			"first (Figure 2 of the paper).",
		Exercise: "Re-run the mpirun cell with -np 8. What changes in the output?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			fmt.Fprintf(w, "Greetings from process %d of %d on %s\n",
				c.Rank(), c.Size(), c.ProcessorName())
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiSendRecv",
		Paradigm: MessagePassing,
		Pattern:  "Message Passing (point-to-point)",
		Summary:  "even ranks send a message; odd ranks receive and print it",
		Explanation: "Processes share no memory; send and recv are the only way " +
			"to move data. Each even rank sends a string to the next odd " +
			"rank, which receives and prints it.",
		Exercise: "Reverse the direction: odds send to evens. What must change?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			if c.Size()%2 != 0 {
				if c.Rank() == 0 {
					fmt.Fprintln(w, "Please run this patternlet with an even number of processes")
				}
				return nil
			}
			if c.Rank()%2 == 0 {
				msg := fmt.Sprintf("a message from process %d", c.Rank())
				return c.Send(c.Rank()+1, 0, msg)
			}
			var msg string
			if _, err := c.Recv(c.Rank()-1, 0, &msg); err != nil {
				return err
			}
			fmt.Fprintf(w, "Process %d received: %s\n", c.Rank(), msg)
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiMasterWorker",
		Paradigm: MessagePassing,
		Pattern:  "Master-Worker",
		Summary:  "workers report to the master, which collects their results",
		Explanation: "Rank 0 (the master) coordinates; the other ranks (workers) " +
			"compute and send results back. The master receives with " +
			"AnySource, taking results in completion order.",
		Exercise: "Make the master hand out a second round of tasks to each worker.",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			const tagResult = 1
			if c.Rank() == 0 {
				if c.Size() == 1 {
					fmt.Fprintln(w, "Master has no workers; run with -np 2 or more")
					return nil
				}
				for i := 1; i < c.Size(); i++ {
					var result int
					st, err := c.Recv(mpi.AnySource, tagResult, &result)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "Master received %d from worker %d\n", result, st.Source)
				}
				return nil
			}
			return c.Send(0, tagResult, c.Rank()*c.Rank())
		},
	})

	register(Patternlet{
		Name:     "mpiParallelLoopEqualChunks",
		Paradigm: MessagePassing,
		Pattern:  "Parallel Loop (block decomposition)",
		Summary:  "each process iterates over its own contiguous block",
		Explanation: "Without shared memory there is no loop construct to lean " +
			"on: each rank computes its own block bounds from its rank and " +
			"the world size — the same arithmetic OpenMP's static schedule " +
			"does internally.",
		Exercise: "Set REPS to 10 with 4 processes: how are the extras assigned?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			const reps = 8
			lo, hi := shm.StaticRange(reps, c.Rank(), c.Size())
			for i := lo; i < hi; i++ {
				fmt.Fprintf(w, "Process %d is performing iteration %d\n", c.Rank(), i)
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiParallelLoopChunksOf1",
		Paradigm: MessagePassing,
		Pattern:  "Parallel Loop (cyclic decomposition)",
		Summary:  "each process takes iterations rank, rank+N, rank+2N, ...",
		Explanation: "The cyclic decomposition in message-passing form: process r " +
			"strides through the iteration space by the world size.",
		Exercise: "When is cyclic better than block decomposition here?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			const reps = 8
			for i := c.Rank(); i < reps; i += c.Size() {
				fmt.Fprintf(w, "Process %d is performing iteration %d\n", c.Rank(), i)
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiBroadcast",
		Paradigm: MessagePassing,
		Pattern:  "Broadcast",
		Summary:  "the master distributes a data structure to every process",
		Explanation: "Broadcast sends one value from a root to all ranks in " +
			"O(log n) rounds — the collective learners use to distribute " +
			"configuration before a computation.",
		Exercise: "Broadcast from a different root. Which argument changes?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			var list []int
			if c.Rank() == 0 {
				for i := 1; i <= c.Size(); i++ {
					list = append(list, i*i)
				}
			}
			got, err := mpi.Bcast(c, list, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Process %d has list %v\n", c.Rank(), got)
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiReduction",
		Paradigm: MessagePassing,
		Pattern:  "Reduction",
		Summary:  "per-process values combine to a single result at the root",
		Explanation: "Each rank contributes a value; the reduction combines them " +
			"with an associative operation. The distributed twin of the " +
			"shared-memory reduction patternlet.",
		Exercise: "Use max instead of sum; then try Allreduce so every rank sees it.",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			square := (c.Rank() + 1) * (c.Rank() + 1)
			total, err := mpi.Reduce(c, square, mpi.Combine[int](mpi.Sum), 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(w, "Sum of squares 1..%d computed across processes: %d\n", c.Size(), total)
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiScatterGather",
		Paradigm: MessagePassing,
		Pattern:  "Scatter-Gather (data decomposition)",
		Summary:  "the root scatters work, everyone computes, the root gathers results",
		Explanation: "Scatter hands each rank one piece of an array; gather " +
			"collects transformed pieces back in rank order. Together they " +
			"bracket the classic data-parallel computation.",
		Exercise: "Scatter two items per rank by scattering a slice of slices.",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			var pieces []int
			if c.Rank() == 0 {
				pieces = make([]int, c.Size())
				for i := range pieces {
					pieces[i] = i + 1
				}
			}
			mine, err := mpi.Scatter(c, pieces, 0)
			if err != nil {
				return err
			}
			cubed := mine * mine * mine
			all, err := mpi.Gather(c, cubed, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(w, "Gathered cubes: %v\n", all)
			}
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiBarrierSequence",
		Paradigm: MessagePassing,
		Pattern:  "Barrier + Sequenced Output",
		Summary:  "barriers divide execution into phases with ordered output",
		Explanation: "Before the barrier, greetings print in arrival order " +
			"(nondeterministic). After it, ranks take turns by looping the " +
			"token rank order with barriers, producing deterministic output " +
			"— at the price of serialization.",
		Exercise: "Count the barriers executed. What does ordered output cost?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			fmt.Fprintf(w, "Unordered greeting from process %d\n", c.Rank())
			for turn := 0; turn < c.Size(); turn++ {
				if err := c.Barrier(); err != nil {
					return err
				}
				if turn == c.Rank() {
					fmt.Fprintf(w, "Ordered greeting from process %d\n", c.Rank())
				}
			}
			return c.Barrier()
		},
	})

	register(Patternlet{
		Name:     "mpiExchange",
		Paradigm: MessagePassing,
		Pattern:  "Pairwise Exchange (deadlock avoidance)",
		Summary:  "neighbours swap values safely with a combined send-receive",
		Explanation: "If every process does a blocking receive before its send, " +
			"the program deadlocks: everyone waits for a message no one has " +
			"sent. The combined send-receive operation performs both halves " +
			"concurrently, so symmetric exchanges are always safe — the " +
			"classic first lesson in deadlock avoidance.",
		Exercise: "Rewrite the exchange with separate send and recv calls ordered " +
			"by rank parity. Why does that also avoid deadlock?",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			if c.Size()%2 != 0 {
				if c.Rank() == 0 {
					fmt.Fprintln(w, "Please run this patternlet with an even number of processes")
				}
				return nil
			}
			// Partner pairs: (0,1), (2,3), ...
			partner := c.Rank() ^ 1
			var theirs int
			_, err := c.Sendrecv(partner, 0, c.Rank()*c.Rank(), partner, 0, &theirs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Process %d and process %d exchanged: received %d\n",
				c.Rank(), partner, theirs)
			return nil
		},
	})

	register(Patternlet{
		Name:     "mpiRing",
		Paradigm: MessagePassing,
		Pattern:  "Ring Communication (neighbour exchange)",
		Summary:  "a token accumulates as it circulates the ring of processes",
		Explanation: "Each process receives from its left neighbour, adds its " +
			"rank, and passes the token right: the communication skeleton of " +
			"stencil and pipeline computations, and a deadlock-avoidance " +
			"exercise (rank 0 must send before receiving).",
		Exercise: "Make the token circle the ring twice.",
		RunRank: func(w io.Writer, c *mpi.Comm) error {
			const tagToken = 3
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			if c.Size() == 1 {
				fmt.Fprintln(w, "Token stayed home: sum of ranks is 0")
				return nil
			}
			if c.Rank() == 0 {
				if err := c.Send(right, tagToken, 0); err != nil {
					return err
				}
				var token int
				if _, err := c.Recv(left, tagToken, &token); err != nil {
					return err
				}
				fmt.Fprintf(w, "Token returned to process 0 carrying %d (sum of ranks 0..%d)\n",
					token, c.Size()-1)
				return nil
			}
			var token int
			if _, err := c.Recv(left, tagToken, &token); err != nil {
				return err
			}
			return c.Send(right, tagToken, token+c.Rank())
		},
	})
}
