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

// Bitmap is a multi-word bitmap used to encode bucket occupancy
// (observation O1: "bit i is set iff buckets[i] contains elements").
type Bitmap []uint64

// NewBitmap returns a bitmap capable of holding nbits bits.
func NewBitmap(nbits int) Bitmap {
	return make(Bitmap, (nbits+63)/64)
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b Bitmap) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
