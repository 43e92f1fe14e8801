package bitops_test

import (
	"math/bits"
	"testing"

	"enetstl/internal/bitops"
)

// FuzzBitops cross-checks the hardware-lowered bit operations against
// the software reference implementation and each other's algebraic
// identities on arbitrary words.
func FuzzBitops(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 63)
	f.Add(uint64(0x8000000000000001))
	f.Add(uint64(0xdeadbeefcafebabe))
	f.Fuzz(func(t *testing.T, x uint64) {
		if got, want := bitops.FFS(x), bitops.SoftFFS(x); got != want {
			t.Fatalf("FFS(%#x) = %d, SoftFFS says %d", x, got, want)
		}
		if x == 0 {
			if bitops.FFS(x) != 0 || bitops.CTZ(x) != 64 {
				t.Fatalf("zero-word conventions violated: ffs=%d ctz=%d", bitops.FFS(x), bitops.CTZ(x))
			}
			return
		}
		// 1-based endpoints against the zero-count forms.
		if bitops.FFS(x) != bitops.CTZ(x)+1 {
			t.Fatalf("FFS(%#x)=%d but CTZ+1=%d", x, bitops.FFS(x), bitops.CTZ(x)+1)
		}
		// The lowest set bit isolated must sit exactly at FFS.
		if low := x & -x; 64-bits.LeadingZeros64(low) != bitops.FFS(x) {
			t.Fatalf("isolated low bit of %#x at %d, FFS says %d", x, 64-bits.LeadingZeros64(low), bitops.FFS(x))
		}
	})
}

// FuzzBitmapScan drives Bitmap.FirstSet over a two-word bitmap against a naive bit-by-bit scan — the occupancy-lookup
// primitive the queuing NFs build on (paper observation O1).
func FuzzBitmapScan(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(1), uint64(1)<<63, uint8(64))
	f.Add(^uint64(0), uint64(0), uint8(127))
	f.Add(uint64(0x10), uint64(0x8000), uint8(5))
	f.Fuzz(func(t *testing.T, w0, w1 uint64, posRaw uint8) {
		b := bitops.Bitmap{w0, w1}
		nbits := 128
		pos := int(posRaw) % (nbits + 2) // probe past the end too

		naiveFirst := func(from int) int {
			if from < 0 {
				from = 0
			}
			for i := from; i < nbits; i++ {
				if b.Test(i) {
					return i
				}
			}
			return -1
		}
		if pos < nbits {
			if got, want := b.FirstSet(pos), naiveFirst(pos); got != want {
				t.Fatalf("FirstSet(%d) over %#x,%#x = %d, naive says %d", pos, w0, w1, got, want)
			}
		}
	})
}
