package bitops

import "math/bits"

// Software reference for the hardware-lowered FFS: the shift-and-test
// sequence an eBPF program must inline, which FuzzBitops and
// TestSoftMatchesHard check FFS against and the Table 2 micro-benchmark
// compares with.

// SoftFFS is the software ffs: a binary search over halves.
func SoftFFS(x uint64) int {
	if x == 0 {
		return 0
	}
	n := 1
	if x&0xffffffff == 0 {
		n += 32
		x >>= 32
	}
	if x&0xffff == 0 {
		n += 16
		x >>= 16
	}
	if x&0xff == 0 {
		n += 8
		x >>= 8
	}
	if x&0xf == 0 {
		n += 4
		x >>= 4
	}
	if x&0x3 == 0 {
		n += 2
		x >>= 2
	}
	if x&0x1 == 0 {
		n++
	}
	return n
}

// FirstSet returns the index of the first set bit at or after from, or
// -1 if none, scanning O(n/64) words with one TZCNT per candidate word
// (the paper's O(ceil(n/64)) lookup). No product path scans a bitmap;
// the bitmap tests and FuzzBitmapScan read it through this.
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
