//go:build race

package core

// Under the race detector sync.Pool drops items at random, so fmt's
// printer pool allocates a varying number of times per plan.
func init() { raceEnabled = true }
