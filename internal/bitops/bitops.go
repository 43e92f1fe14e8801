// Package bitops provides the hardware bit-manipulation algorithms of
// eNetSTL (paper §4.3, "Algorithms: bit manipulation"). On amd64 the Go
// compiler lowers math/bits to a single TZCNT, which is exactly the FFS
// acceleration the paper wraps; eBPF bytecode has no such instruction
// and must loop in software.
package bitops

import "math/bits"

// FFS returns the 1-based index of the least significant set bit of x,
// or 0 if x is zero — the semantics of the ffs(3) / kernel __ffs family
// the paper's queuing NFs rely on.
func FFS(x uint64) int {
	if x == 0 {
		return 0
	}
	return bits.TrailingZeros64(x) + 1
}

// CTZ returns the number of trailing zero bits (64 when x is 0).
func CTZ(x uint64) int { return bits.TrailingZeros64(x) }
