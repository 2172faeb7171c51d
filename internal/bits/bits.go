// Package bits provides the small bit-arithmetic helpers used throughout the
// embedding library: Hamming distance, power-of-two roundings and base-2
// logarithms in the forms used by the paper (⌈x⌉₂ = 2^⌈log₂ x⌉).
package bits

import "math/bits"

// Hamming returns the Hamming distance between x and y, i.e. the number of
// bit positions in which they differ.  It is the graph distance between two
// nodes of a Boolean cube.
func Hamming(x, y uint64) int {
	return bits.OnesCount64(x ^ y)
}

// CeilLog2 returns ⌈log₂ x⌉ for x ≥ 1.  CeilLog2(1) == 0.
// It panics for x < 1: the paper's ⌈·⌉₂ operator is only defined on
// positive mesh cardinalities.
func CeilLog2(x uint64) int {
	if x < 1 {
		panic("bits: CeilLog2 of non-positive value")
	}
	return bits.Len64(x - 1)
}

// FloorLog2 returns ⌊log₂ x⌋ for x ≥ 1.  FloorLog2(1) == 0.
func FloorLog2(x uint64) int {
	if x < 1 {
		panic("bits: FloorLog2 of non-positive value")
	}
	return bits.Len64(x) - 1
}

// CeilPow2 returns ⌈x⌉₂ = 2^⌈log₂ x⌉, the smallest power of two ≥ x.
// This is the paper's minimal-cube cardinality for a graph of x nodes.
func CeilPow2(x uint64) uint64 {
	return 1 << CeilLog2(x)
}

// IsPow2 reports whether x is a power of two (x ≥ 1).
func IsPow2(x uint64) bool {
	return x >= 1 && x&(x-1) == 0
}

// FlipBit returns x with bit m inverted.
func FlipBit(x uint64, m int) uint64 {
	return x ^ (1 << uint(m))
}

// DiffBits returns the positions of the bits in which x and y differ, in
// increasing order.  len(DiffBits(x,y)) == Hamming(x,y).
func DiffBits(x, y uint64) []int {
	d := x ^ y
	out := make([]int, 0, bits.OnesCount64(d))
	for d != 0 {
		b := bits.TrailingZeros64(d)
		out = append(out, b)
		d &= d - 1
	}
	return out
}
