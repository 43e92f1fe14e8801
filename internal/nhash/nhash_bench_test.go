package nhash

import "testing"

// Component-level hashing benchmarks: the portable mixer, and the fused count-min update against the
// hash-then-copy pattern it replaces (Table 2's hashing rows).

var (
	sink32 uint32
	key16  = []byte("0123456789abcdef")
)

func BenchmarkFastHash64(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += FastHash64(key16, uint64(i))
	}
	sink32 = uint32(s)
}

func BenchmarkHashCntFused(b *testing.B) {
	m := Matrix{Rows: 8, Mask: 4095}
	buf := make([]uint32, 8*4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashCnt(buf, m, key16)
	}
}

func BenchmarkHashNThenCount(b *testing.B) {
	// The low-level pattern: materialize all hashes, then consume them.
	m := Matrix{Rows: 8, Mask: 4095}
	buf := make([]uint32, 8*4096)
	var hs [8]uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashN(key16, 8, hs[:])
		for r := 0; r < 8; r++ {
			buf[r*4096+int(hs[r]&m.Mask)]++
		}
	}
}

func BenchmarkHashTest(b *testing.B) {
	bm := make([]uint64, 4096/64)
	HashSet(bm, 4, 4095, key16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !HashTest(bm, 4, 4095, key16) {
			b.Fatal("lost key")
		}
	}
}
