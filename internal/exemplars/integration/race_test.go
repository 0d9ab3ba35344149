//go:build race

package integration

// The race detector makes sync.Pool drop a share of its Puts, so shm's
// pooled region state is reallocated now and then and allocation pins do
// not hold.
func init() { raceEnabled = true }
