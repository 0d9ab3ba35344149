//go:build race

package shm

// The race detector makes sync.Pool drop a share of its Puts, so the pooled
// region state is reallocated now and then and allocation pins do not hold.
func init() { raceEnabled = true }
