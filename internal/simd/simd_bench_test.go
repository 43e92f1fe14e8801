package simd

import "testing"

// Component-level compare/reduce benchmarks: the fused wide operations
// against the per-instruction interface with its memory round trips
// (Table 2 / Fig. 6 at component granularity).

var benchSink int

func BenchmarkFindU32Fused(b *testing.B) {
	arr := make([]uint32, 8)
	arr[6] = 0xDEAD
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = FindU32(arr, 0xDEAD)
	}
}

func BenchmarkFindU32LowLevel(b *testing.B) {
	// Load, compare, store the mask, reload, movemask: the Listing 1
	// counter-example.
	arr := make([]uint32, 8)
	arr[6] = 0xDEAD
	maskMem := make([]uint32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := VecLoad(arr)
		m := VecCmpEq(v, 0xDEAD)
		copy(maskMem, m[:]) // the store back to memory
		bits := VecMoveMask(VecLoad(maskMem))
		idx := -1
		for j := 0; j < LaneWidth; j++ {
			if bits&(1<<j) != 0 {
				idx = j
				break
			}
		}
		benchSink = idx
	}
}

func BenchmarkMinU32(b *testing.B) {
	arr := make([]uint32, 64)
	for i := range arr {
		arr[i] = uint32(1000 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = MinU32(arr)
	}
}
