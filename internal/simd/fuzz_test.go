package simd

import (
	"encoding/binary"
	"testing"
)

// FuzzSIMDBytes holds every *LE byte-view scan to its slice twin: over
// arbitrary bytes, at every sub-slice start in the first lane-and-a-bit
// (so odd offsets and lengths that are not a multiple of the lane both
// occur), the byte view must answer what the slice scan answers for the
// decoded whole lanes — trailing bytes ignored.
func FuzzSIMDBytes(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 2, 3}, uint32(0x030201))
	f.Add(make([]byte, 67), uint32(0))
	seed := make([]byte, 131)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint32(0x4a250094))
	f.Add(seed, uint32(0x6f4a))
	f.Fuzz(func(t *testing.T, data []byte, key uint32) {
		for start := 0; start <= 5 && start <= len(data); start++ {
			b := data[start:]
			u32 := make([]uint32, len(b)/4)
			for i := range u32 {
				u32[i] = binary.LittleEndian.Uint32(b[i*4:])
			}
			u16 := make([]uint16, len(b)/2)
			for i := range u16 {
				u16[i] = binary.LittleEndian.Uint16(b[i*2:])
			}
			// Search for the caller's key and for one that is present, so the
			// hit path is reached whatever the fuzzer picked.
			keys := []uint32{key}
			if n := len(u32); n > 0 {
				keys = append(keys, u32[int(key%uint32(n))])
			}
			for _, k := range keys {
				if got, want := FindU32LE(b, k), FindU32(u32, k); got != want {
					t.Fatalf("start %d len %d: FindU32LE(%#x) = %d, FindU32 = %d", start, len(b), k, got, want)
				}
				if got, want := FindU16LE(b, uint16(k)), FindU16(u16, uint16(k)); got != want {
					t.Fatalf("start %d len %d: FindU16LE(%#x) = %d, FindU16 = %d", start, len(b), uint16(k), got, want)
				}
			}
			gi, gv := MinU32LE(b)
			if wi, wv := MinU32(u32); gi != wi || gv != wv {
				t.Fatalf("start %d len %d: MinU32LE = (%d,%#x), MinU32 = (%d,%#x)", start, len(b), gi, gv, wi, wv)
			}
		}
	})
}
