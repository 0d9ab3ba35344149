package mpi

import (
	"context"
	"errors"
	"fmt"
)

// Wildcards for Recv, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reserved internal tags used by collectives. User tags must be >= 0, as in
// MPI; the runtime owns the negative tag space.
const (
	tagBcast   = -3
	tagReduce  = -4
	tagScatter = -5
	tagGather  = -6
	tagSplit   = -8
	tagDissem  = -12 // dissemination Barrier
	tagAllgat  = -13 // ring Allgather
)

// ErrInvalidRank is returned when a destination or source rank is outside
// the communicator.
var ErrInvalidRank = errors.New("mpi: rank out of range")

// ErrInvalidTag is returned when a user send or receive uses a tag the
// runtime reserves (negative values other than AnyTag on receive).
var ErrInvalidTag = errors.New("mpi: invalid tag")

// ErrShutdown is returned by operations on a world that has been stopped.
var ErrShutdown = errors.New("mpi: world shut down")

// ErrWorldAborted is returned by every operation on a world that has been
// revoked: when any rank fails (error or panic), the runtime poisons the
// surviving ranks' mailboxes so blocked receives, pending requests, and
// in-flight collectives return this error instead of hanging — the
// ULFM-style revoke semantic. Use errors.Is to detect it; the error chain
// also wraps the originating rank's failure.
var ErrWorldAborted = errors.New("mpi: world aborted")

// sentinelError is a package sentinel that additionally matches a related
// standard-library error under errors.Is, so callers can test for either the
// runtime's condition or the stdlib one interchangeably.
type sentinelError struct {
	msg  string
	also error
}

func (e *sentinelError) Error() string { return e.msg }
func (e *sentinelError) Is(target error) bool {
	return e.also != nil && target == e.also
}

// ErrDeadlineExceeded is returned by a blocking receive that
// outlived the world's WithDeadline budget. The concrete error is a
// *DeadlineError carrying a who-waits-on-whom snapshot of every blocked
// rank; the first deadline breach also revokes the world. It composes with
// the standard library: errors.Is(err, context.DeadlineExceeded) is true for
// every error that matches this sentinel.
var ErrDeadlineExceeded error = &sentinelError{
	msg:  "mpi: operation deadline exceeded",
	also: context.DeadlineExceeded,
}

// ErrRankFailed is the sentinel for a peer rank's failure observed under
// WithRecovery: pending and affected operations return a *RankFailedError
// (which matches this sentinel under errors.Is) instead of the world being
// revoked, so survivors can Recover and continue.
var ErrRankFailed = errors.New("mpi: peer rank failed")

// ErrFormationTimeout is returned by Hub.Wait when HubFormationTimeout
// elapsed before every rank joined; the error names the missing ranks.
var ErrFormationTimeout = errors.New("mpi: world formation timed out")

// ErrRankKilled is injected by a FaultKillRank rule: the killed rank's
// sends fail with an error wrapping this sentinel, which then propagates
// through the abort machinery like any other rank failure.
var ErrRankKilled = errors.New("mpi: fault injection killed rank")

// Status describes a received message, mirroring MPI_Status: which rank sent
// it, under which tag, and how large the payload was. Bytes reports wire
// bytes for gob payloads and the wire transports (TCP, shm) and
// the in-memory payload size for the local transport's zero-serialization
// fast path; it is positive whenever the payload is non-empty, but its exact
// value is transport-dependent, as MPI_Get_count is datatype-dependent.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// String formats the status for diagnostics.
func (s Status) String() string {
	return fmt.Sprintf("Status{source: %d, tag: %d, bytes: %d}", s.Source, s.Tag, s.Bytes)
}

// frame is the unit of transport: an addressed, tagged payload within a
// communicator context. Collective operations share the user's transport
// but live in the reserved (negative) tag space.
//
// The payload has three representations. Data with Raw == rawNone carries
// gob bytes — the self-describing wire format, and the fallback every
// payload can take. Val carries a typed in-memory value (flagged by HasVal);
// a slice in it is borrowed from the sender (see borrowed). Data with a
// non-zero Raw carries the raw little-endian encoding of a whitelisted
// slice (rawcodec.go), produced and consumed by the TCP framing; the
// buffer is pooled, so consumers release it via decodeInto or release.
type frame struct {
	Ctx    int64 // communicator context id
	Src    int   // sender's rank within Ctx (what the receiver matches on)
	WSrc   int   // sender's world rank (what transports route/model on)
	Dst    int   // receiver's world rank (what the transport routes on)
	Tag    int
	Data   []byte
	Val    any // typed fast-path payload; never leaves the process
	HasVal bool
	Raw    byte // raw codec kind for Data (rawNone = gob bytes)

	// borrowed is the one ownership rule every transport follows: Val is the
	// slice the caller passed in, uncopied, and whoever carries the frame is
	// done reading its elements when the call that lent it returns. For Send
	// that is Send — TCP and shm encode it there, and a mailbox or anything
	// that keeps the frame longer settles it (fastpath.go). For an exchange
	// step (Comm.exchange) it is the step, and the frame is lent as well: a
	// mailbox with no receive posted for it queues it uncopied, whoever takes
	// it off the queue settles it under the mailbox lock, and the step recalls
	// what is left before it returns. landed marks a frame whose payload is in
	// the receive's destination already: copied there by settle (Val then views
	// the destination, not the sender's slice), or read there off the socket
	// (Data views the destination; nothing to release).
	borrowed, landed, lent bool

	// rel, when set, overrides how this frame's Data is returned to its
	// owner: the shm transport's rendezvous frames view mapped shared
	// memory and must free their staging block, not enter the wire-buffer
	// pool. Unexported, so gob never sees it and it cannot cross a
	// connection. Called exactly once, by release or decodeInto.
	rel func()
}

// release returns a raw frame's payload buffer to its owner — the staging
// block for shm rendezvous frames, the wire-buffer freelist otherwise. Safe
// (and a no-op) on every other frame; call it whenever a frame's payload is
// discarded without being decoded.
func (f *frame) release() {
	if f.Raw != rawNone && f.Data != nil && !f.landed {
		f.releaseData()
	}
}

// releaseData hands back a raw frame's Data, honoring the rel override. The
// caller has already established f.Raw != rawNone.
func (f *frame) releaseData() {
	if f.rel != nil {
		f.rel()
		return
	}
	putWireBuf(f.Data)
}
