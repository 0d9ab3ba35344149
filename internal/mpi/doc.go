// Package mpi implements a message-passing runtime for Go with the semantics
// of the Message Passing Interface, the library (via mpi4py) that the
// paper's distributed-computing patternlets teach.
//
// MPI structures a computation as a fixed set of independent processes
// (ranks) that share no memory and cooperate only by sending and receiving
// messages. This package reproduces the parts of that model the teaching
// materials rely on:
//
//   - SPMD execution: Run(np, main) starts np ranks all executing main,
//     each with its own Comm giving Rank(), Size(), and ProcessorName().
//   - Point-to-point messaging with MPI's matching rules: messages are
//     matched by (source, tag) with AnySource/AnyTag wildcards, and
//     messages between a fixed (sender, receiver) pair are non-overtaking.
//   - Nonblocking operations (Isend/Irecv, IAllreduce) with Wait/Waitall.
//   - The collective operations the patternlets use: Barrier, Bcast,
//     Reduce, Allreduce, Scatter, Gather and Allgather.
//   - Communicator management: Split creates sub-communicators with
//     isolated message namespaces.
//
// Two transports are provided. The in-process transport runs each rank as a
// goroutine and routes messages through in-memory mailboxes; it is the
// analogue of running mpirun on a single multicore node (or the paper's
// unicore Colab VM). The TCP transport routes messages between genuinely
// separate endpoints through a hub over net.Conn, and supports ranks living
// in different OS processes, the analogue of a Beowulf cluster such as the
// paper's Chameleon platform.
//
// Payloads are Go values serialized with encoding/gob, mirroring how mpi4py
// lowercase methods (send/recv/bcast/...) pickle arbitrary Python objects.
package mpi
