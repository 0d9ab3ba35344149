package mpi

import (
	"fmt"
	"sort"
)

// ColorUndefined makes Split return a nil communicator for the calling
// rank, mirroring MPI_UNDEFINED: the rank takes part in the collective but
// joins no group.
const ColorUndefined = -1

// maxSplitsPerComm bounds how many Split/shrink calls a single communicator
// supports; context ids for children are packed into a radix-64 digit of
// the parent's id. The top three digit values are reserved for the
// runtime's own derived communicators, which are constructed without
// communication (the membership is deterministic from the parent's group
// and topology) and therefore cannot consume Split sequence numbers.
const (
	maxSplitsPerComm = 60
	ctxProgress      = 61 // the progress engine's shadow communicator (progress.go)
	ctxHierNode      = 62 // the hierarchical intra-node communicator (hier.go)
	ctxHierLeaders   = 63 // the hierarchical leader communicator (hier.go)
)

// splitEntry is exchanged during Split so every rank can compute the group
// membership and ordering locally and identically.
type splitEntry struct {
	Color int
	Key   int
	Rank  int // rank within the parent communicator
}

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, ordering ranks within each group by (key, parent
// rank): MPI_Comm_split. Every member of the communicator must call Split
// (it is collective); ranks passing ColorUndefined receive a nil
// communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	seq := c.nextCtx
	c.nextCtx++
	if seq > maxSplitsPerComm {
		return nil, fmt.Errorf("mpi: more than %d Split calls on one communicator", maxSplitsPerComm)
	}
	childCtx := c.ctx*64 + seq

	entries, err := Allgather(c, splitEntry{Color: color, Key: key, Rank: c.rank})
	if err != nil {
		return nil, err
	}
	if color == ColorUndefined {
		return nil, nil
	}

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
	return &Comm{
		world:   c.world,
		ctx:     childCtx,
		rank:    newRank,
		ranks:   ranks,
		nextCtx: 1,
		epoch:   c.epoch,
	}, nil
}
