// Package simd implements eNetSTL's parallel comparing and reducing
// algorithms (paper §4.3). The paper wraps AVX2 lane operations behind
// high-level interfaces (find_simd, min reduction) so one call
// replaces a software scan; here the lanes are unrolled wide compares
// the Go compiler keeps in registers, standing in for SIMD registers.
// The package also exposes the deliberately low-level per-instruction
// interface (Vec32, Load/CmpEq/MoveMask) that Listing 1 warns against,
// used by the Fig. 6 ablation.
package simd

import (
	"encoding/binary"
	"math/bits"
)

// LaneWidth is the number of 32-bit lanes per vector operation (AVX2's
// 256-bit registers hold 8).
const LaneWidth = 8

// eq8 is one wide compare: bit i of the result is set iff lane i equals
// key. The compiler inlines it and keeps the lanes in registers, so the
// caller branches once per vector (the VPCMPEQD+VPMOVMSKB pair).
func eq8(a0, a1, a2, a3, a4, a5, a6, a7, key uint32) uint32 {
	m := uint32(0)
	if a0 == key {
		m |= 1 << 0
	}
	if a1 == key {
		m |= 1 << 1
	}
	if a2 == key {
		m |= 1 << 2
	}
	if a3 == key {
		m |= 1 << 3
	}
	if a4 == key {
		m |= 1 << 4
	}
	if a5 == key {
		m |= 1 << 5
	}
	if a6 == key {
		m |= 1 << 6
	}
	if a7 == key {
		m |= 1 << 7
	}
	return m
}

// FindU32 returns the index of the first element of arr equal to key,
// or -1. It processes 8 lanes per step, mirroring a VPCMPEQD+VPMOVMSKB
// sequence that loads the input once and returns the index in a
// register (Listing 1's find_simd).
func FindU32(arr []uint32, key uint32) int {
	n := len(arr)
	i := 0
	for ; i+LaneWidth <= n; i += LaneWidth {
		a := (*[LaneWidth]uint32)(arr[i:])
		if m := eq8(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], key); m != 0 {
			return i + bits.TrailingZeros32(m)
		}
	}
	for ; i < n; i++ {
		if arr[i] == key {
			return i
		}
	}
	return -1
}

// FindU32LE is FindU32 over the little-endian byte image of the array —
// program memory as the VM holds it — so a kfunc scans in place instead
// of converting the buffer first. Indices count 4-byte lanes; bytes past
// the last whole lane are ignored.
func FindU32LE(b []byte, key uint32) int {
	n := len(b) / 4
	i := 0
	for ; i+LaneWidth <= n; i += LaneWidth {
		a := (*[LaneWidth * 4]byte)(b[i*4:])
		if m := eq8(le32(a[0:4]), le32(a[4:8]), le32(a[8:12]), le32(a[12:16]),
			le32(a[16:20]), le32(a[20:24]), le32(a[24:28]), le32(a[28:32]), key); m != 0 {
			return i + bits.TrailingZeros32(m)
		}
	}
	for ; i < n; i++ {
		if le32(b[i*4:]) == key {
			return i
		}
	}
	return -1
}

// FindU16 is FindU32 for 16-bit lanes (fingerprint compares in cuckoo
// filters), 16 lanes per step: two 8-lane compares on the widened lanes.
func FindU16(arr []uint16, key uint16) int {
	n := len(arr)
	k := uint32(key)
	i := 0
	for ; i+16 <= n; i += 16 {
		a := (*[16]uint16)(arr[i:])
		m := eq8(uint32(a[0]), uint32(a[1]), uint32(a[2]), uint32(a[3]),
			uint32(a[4]), uint32(a[5]), uint32(a[6]), uint32(a[7]), k) |
			eq8(uint32(a[8]), uint32(a[9]), uint32(a[10]), uint32(a[11]),
				uint32(a[12]), uint32(a[13]), uint32(a[14]), uint32(a[15]), k)<<8
		if m != 0 {
			return i + bits.TrailingZeros32(m)
		}
	}
	for ; i < n; i++ {
		if arr[i] == key {
			return i
		}
	}
	return -1
}

// FindU16LE is FindU16 over the little-endian byte image (see
// FindU32LE). Indices count 2-byte lanes; a trailing odd byte is ignored.
func FindU16LE(b []byte, key uint16) int {
	n := len(b) / 2
	k := uint32(key)
	i := 0
	for ; i+16 <= n; i += 16 {
		a := (*[32]byte)(b[i*2:])
		m := eq8(le16(a[0:2]), le16(a[2:4]), le16(a[4:6]), le16(a[6:8]),
			le16(a[8:10]), le16(a[10:12]), le16(a[12:14]), le16(a[14:16]), k) |
			eq8(le16(a[16:18]), le16(a[18:20]), le16(a[20:22]), le16(a[22:24]),
				le16(a[24:26]), le16(a[26:28]), le16(a[28:30]), le16(a[30:32]), k)<<8
		if m != 0 {
			return i + bits.TrailingZeros32(m)
		}
	}
	for ; i < n; i++ {
		if le16(b[i*2:]) == k {
			return i
		}
	}
	return -1
}

// min4 is the tournament reduction inside one 4-lane block: the lane
// index and value of the block's first minimum.
func min4(a0, a1, a2, a3 uint32) (int, uint32) {
	bi, bv := 0, a0
	if a1 < bv {
		bi, bv = 1, a1
	}
	if a2 < bv {
		bi, bv = 2, a2
	}
	if a3 < bv {
		bi, bv = 3, a3
	}
	return bi, bv
}

// MinU32 returns the index and value of the first minimum element. It
// is the paper's parallel min-reduction over contiguous buckets
// (HeavyKeeper / space-saving style eviction scans): a tournament inside
// each 4-lane block, then one compare against the running minimum.
func MinU32(arr []uint32) (idx int, val uint32) {
	if len(arr) == 0 {
		return -1, 0
	}
	idx, val = 0, arr[0]
	i := 1
	for ; i+4 <= len(arr); i += 4 {
		a := (*[4]uint32)(arr[i:])
		if bi, bv := min4(a[0], a[1], a[2], a[3]); bv < val {
			idx, val = i+bi, bv
		}
	}
	for ; i < len(arr); i++ {
		if arr[i] < val {
			idx, val = i, arr[i]
		}
	}
	return idx, val
}

// MinU32LE is MinU32 over the little-endian byte image (see FindU32LE).
func MinU32LE(b []byte) (idx int, val uint32) {
	n := len(b) / 4
	if n == 0 {
		return -1, 0
	}
	idx, val = 0, le32(b)
	i := 1
	for ; i+4 <= n; i += 4 {
		a := (*[16]byte)(b[i*4:])
		if bi, bv := min4(le32(a[0:4]), le32(a[4:8]), le32(a[8:12]), le32(a[12:16])); bv < val {
			idx, val = i+bi, bv
		}
	}
	for ; i < n; i++ {
		if v := le32(b[i*4:]); v < val {
			idx, val = i, v
		}
	}
	return idx, val
}

// le32 and le16 are the byte views' lane loads (one MOV each on
// little-endian hardware); le16 widens so both lane widths share eq8.
func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le16(b []byte) uint32 { return uint32(binary.LittleEndian.Uint16(b)) }

// --- Low-level per-instruction interface (Fig. 6 ablation) ---

// Vec32 is one 8-lane vector value. The low-level API moves data between
// memory and Vec32 values on every operation, reproducing the costly
// load/store round-trips of Listing 1's bpf_mm256_* wrappers.
type Vec32 [LaneWidth]uint32

// VecLoad loads 8 lanes from mem (the costly SIMD load).
func VecLoad(mem []uint32) Vec32 {
	var v Vec32
	copy(v[:], mem[:LaneWidth])
	return v
}

// VecCmpEq compares lanes against key, producing an all-ones/zero mask
// per lane.
func VecCmpEq(a Vec32, key uint32) Vec32 {
	var r Vec32
	for i := range r {
		if a[i] == key {
			r[i] = ^uint32(0)
		}
	}
	return r
}

// VecMoveMask extracts one bit per lane from a mask vector.
func VecMoveMask(m Vec32) uint32 {
	var bits uint32
	for i := range m {
		if m[i] != 0 {
			bits |= 1 << uint(i)
		}
	}
	return bits
}
