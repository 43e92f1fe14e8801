// Package bitops provides the hardware bit-manipulation algorithms of
// eNetSTL (paper §4.3, "Algorithms: bit manipulation"). On amd64 the Go
// compiler lowers math/bits to single instructions (TZCNT/LZCNT/POPCNT),
// which is exactly the FFS/FLS/POPCNT acceleration the paper wraps;
// eBPF bytecode has no such instructions and must loop in software.
package bitops

import (
	"encoding/binary"
	"math/bits"
)

// FFS returns the 1-based index of the least significant set bit of x,
// or 0 if x is zero — the semantics of the ffs(3) / kernel __ffs family
// the paper's queuing NFs rely on.
func FFS(x uint64) int {
	if x == 0 {
		return 0
	}
	return bits.TrailingZeros64(x) + 1
}

// FLS returns the 1-based index of the most significant set bit of x,
// or 0 if x is zero.
func FLS(x uint64) int {
	return 64 - bits.LeadingZeros64(x)
}

// CTZ returns the number of trailing zero bits (64 when x is 0).
func CTZ(x uint64) int { return bits.TrailingZeros64(x) }

// Popcnt returns the number of set bits in x.
func Popcnt(x uint64) int { return bits.OnesCount64(x) }

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

// FirstSet returns the index of the first set bit at or after from, or
// -1 if none. It scans O(n/64) words, using one TZCNT per candidate word
// — the paper's O(ceil(n/64)) lookup.
func (b Bitmap) FirstSet(from int) int {
	if from < 0 {
		from = 0
	}
	n := len(b) * 64
	if from >= n {
		return -1
	}
	w := from >> 6
	// Mask off bits below `from` in the first word.
	cur := b[w] & (^uint64(0) << (uint(from) & 63))
	for {
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		if w >= len(b) {
			return -1
		}
		cur = b[w]
	}
}

// FirstSetLE is Bitmap.FirstSet over the little-endian byte image of
// the words — program memory as the VM holds it — so a kfunc scans the
// caller's bitmap in place. Bytes past the last whole word are ignored.
func FirstSetLE(b []byte, from int) int {
	if from < 0 {
		from = 0
	}
	words := len(b) / 8
	if from >= words*64 {
		return -1
	}
	w := from >> 6
	cur := binary.LittleEndian.Uint64(b[w*8:]) & (^uint64(0) << (uint(from) & 63))
	for {
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		if w >= words {
			return -1
		}
		cur = binary.LittleEndian.Uint64(b[w*8:])
	}
}
