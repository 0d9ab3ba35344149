//go:build race

package pagerank

func init() { raceEnabled = true }
