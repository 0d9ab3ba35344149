package mpi

import (
	"math"
	"slices"
	"sort"
)

// ColorUndefined makes Split return a nil communicator for the calling
// rank, mirroring MPI_UNDEFINED: the rank takes part in the collective but
// joins no group.
const ColorUndefined = -1

// Context ids. A communicator's id isolates its messages (the mailbox
// matches on ctx, src and tag), so two communicators a rank can hear from
// never share one. Each communicator owns a block of ctxBlock ids: its own,
// then one per kind of runtime sub-communicator built over it (derived).
// Three rules hand the blocks out, in ranges that do not meet:
//   - the world's block is at 0, and Split's lie above it: each rank counts
//     its next free id, and a Split starts at the largest count among the
//     parent's members;
//   - a restore's block comes from the coordinator that decides its
//     agreement, counting down from -ctxBlock (membership.restoreCtx);
//   - epoch e's world takes math.MinInt64 + e*ctxBlock (epochComm), which
//     every rank, a relaunched one included, derives from e alone.
//
// The last two would meet only after 2^63/ctxBlock restores and epochs.
const (
	subProgress      = 1 // the progress engine's shadow (progress.go)
	subNode          = 2 // the hierarchy's intra-node communicator (hier.go)
	subLeaders       = 3 // the hierarchy's leader communicator (hier.go)
	subShadowNode    = 4 // the shadow's intra-node communicator
	subShadowLeaders = 5 // the shadow's leader communicator
	ctxBlock         = subShadowLeaders + 1
)

// ctxKey names a user communicator across the world, as revokes and
// agreements must. A Split id is fresh at each member only, so disjoint
// groups can hold one; lead, the group's lowest world rank, tells them apart.
type ctxKey struct {
	ctx  int64
	lead int
}

// derived builds c's runtime sub-communicator of the given kind over the
// given parent-comm ranks (sorted ascending), with no communication: its
// members and its id in its owner's block follow from c alone, so every
// member computes the identical communicator. A caller that is not a
// member gets rank -1 and must not communicate on the result.
func (c *Comm) derived(kind int64, members []int, flatOnly bool) *Comm {
	ranks := make([]int, len(members))
	rank := -1
	for i, pr := range members {
		ranks[i] = c.worldRank(pr)
		if pr == c.rank {
			rank = i
		}
	}
	return &Comm{
		world:    c.world,
		ctx:      c.owner.ctx + kind,
		owner:    c.owner,
		rank:     rank,
		ranks:    ranks,
		epoch:    c.epoch,
		flatOnly: flatOnly,
	}
}

// restoreCtx stamps a decided agreement with the id of the communicator it
// restores: one coordinator per world, so no two restores share one.
func (m *membership) restoreCtx() int64 {
	m.restores -= ctxBlock
	return m.restores
}

// epochComm builds the calling rank's world communicator of the given epoch.
func (w *World) epochComm(c *Comm, epoch int) *Comm {
	rc := w.comm(c.worldRank(c.rank))
	rc.ctx, rc.epoch = math.MinInt64+int64(epoch)*ctxBlock, epoch
	rc.owner = ctxKey{rc.ctx, 0}
	return rc
}

// splitEntry is exchanged during Split so every rank can compute the group
// membership and ordering locally and identically.
type splitEntry struct {
	Color int
	Key   int
	Rank  int   // rank within the parent communicator
	Next  int64 // the sender's next free context id; 0: none taken yet
}

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, ordering ranks within each group by (key, parent
// rank): MPI_Comm_split. Every member of the communicator must call Split
// (it is collective); ranks passing ColorUndefined receive a nil
// communicator. A rank's Splits of different communicators must not run
// at the same time: each takes its ids from the rank's one count.
func (c *Comm) Split(color, key int) (*Comm, error) {
	next := &c.world.nextCtx[c.worldRank(c.rank)]
	entries, err := Allgather(c, splitEntry{Color: color, Key: key, Rank: c.rank, Next: *next})
	if err != nil {
		return nil, err
	}
	// The k-th color, ascending, takes the block at free + k*ctxBlock, and
	// every member moves its count past the last block: each group's id is
	// fresh at all its members and differs from its siblings'.
	free := int64(ctxBlock) // past the world's block
	colors := make([]int, 0, len(entries))
	for _, e := range entries {
		free = max(free, e.Next)
		if e.Color != ColorUndefined {
			colors = append(colors, e.Color)
		}
	}
	slices.Sort(colors)
	colors = slices.Compact(colors)
	*next = free + int64(len(colors))*ctxBlock
	if color == ColorUndefined {
		return nil, nil
	}
	k, _ := slices.BinarySearch(colors, color)

	var group []splitEntry
	for _, e := range entries {
		if e.Color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].Key != group[j].Key {
			return group[i].Key < group[j].Key
		}
		return group[i].Rank < group[j].Rank
	})

	ranks := make([]int, len(group))
	newRank := -1
	for i, e := range group {
		ranks[i] = c.worldRank(e.Rank)
		if e.Rank == c.rank {
			newRank = i
		}
	}
	ctx := free + int64(k)*ctxBlock
	return &Comm{world: c.world, ctx: ctx, owner: ctxKey{ctx, slices.Min(ranks)}, rank: newRank, ranks: ranks, epoch: c.epoch}, nil
}
