package bitops

import "testing"

// The Table 2 "bit manipulation" row at component level: hardware-
// lowered FFS (math/bits) against the software sequences an
// eBPF program must inline.

var sinkInt int

func BenchmarkFFSHardware(b *testing.B) {
	x := uint64(0x8000_0100_0000_0000)
	for i := 0; i < b.N; i++ {
		sinkInt = FFS(x + uint64(i&1))
	}
}

func BenchmarkFFSSoftware(b *testing.B) {
	x := uint64(0x8000_0100_0000_0000)
	for i := 0; i < b.N; i++ {
		sinkInt = SoftFFS(x + uint64(i&1))
	}
}
