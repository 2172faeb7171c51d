//go:build race

package server

// Under the race detector sync.Pool drops items at random, so the request
// path allocates a varying number of times.
func init() { raceEnabled = true }
