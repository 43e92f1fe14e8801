// Package nhash implements eNetSTL's hashing algorithms (paper §4.3,
// "Algorithms: unified post-hashing operations"): a multiply-mix
// software hash shared bit-for-bit with the bytecode emitter (so
// eBPF/eNetSTL/kernel flavours compute identical sketches), multi-seed hash batteries, and the fused post-hashing
// operations (count, set/test bits, min-query) that avoid copying hash
// values back to the caller.
package nhash

// FastHash64 constants (the fast-hash mixer the paper's listings name
// "fasthash"). The same algorithm is emitted as eBPF bytecode by
// internal/nf/nfasm, keeping all three flavours in agreement.
const (
	fhM = 0x880355f21e6d1965
	fhX = 0x2127599bf4325c37
)

func fhMix(h uint64) uint64 {
	h ^= h >> 23
	h *= fhX
	h ^= h >> 47
	return h
}

// FastHash64 hashes key with seed using 8-byte multiply-mix rounds.
// Trailing bytes are zero-padded into a final word, matching the
// bytecode emitter exactly.
func FastHash64(key []byte, seed uint64) uint64 {
	h := seed ^ uint64(len(key))*fhM
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := le64(key[i:])
		h ^= fhMix(w)
		h *= fhM
	}
	if i < len(key) {
		var w uint64
		for j := len(key) - 1; j >= i; j-- {
			w = w<<8 | uint64(key[j])
		}
		h ^= fhMix(w)
		h *= fhM
	}
	return fhMix(h)
}

// FastHash32 folds FastHash64 to 32 bits.
func FastHash32(key []byte, seed uint64) uint32 {
	h := FastHash64(key, seed)
	return uint32(h) ^ uint32(h>>32)
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Matrix describes a d×w counter matrix laid out row-major in a flat
// uint32 slice, with w a power of two (Mask == w-1).
type Matrix struct {
	Rows int
	Mask uint32
}

// HashCnt is the fused hash_simd_cnt of Listing 2: compute Rows hashes
// of key and increment one counter per row, never materializing the
// hash vector. buf must hold Rows*(Mask+1) uint32 counters.
func HashCnt(buf []uint32, m Matrix, key []byte) {
	w := int(m.Mask) + 1
	for i := 0; i < m.Rows; i++ {
		h := FastHash32(key, uint64(i)*0x9e3779b97f4a7c15+1)
		buf[i*w+int(h&m.Mask)]++
	}
}

// HashMin is the fused count-min query: the minimum of the Rows counters
// selected by the hashes of key.
func HashMin(buf []uint32, m Matrix, key []byte) uint32 {
	w := int(m.Mask) + 1
	min := ^uint32(0)
	for i := 0; i < m.Rows; i++ {
		h := FastHash32(key, uint64(i)*0x9e3779b97f4a7c15+1)
		if c := buf[i*w+int(h&m.Mask)]; c < min {
			min = c
		}
	}
	return min
}

// HashSet is the fused "set bits after hashing" (Bloom insert): sets d
// bits of the bitmap selected by d hashes. nbitsMask must be 2^k-1.
func HashSet(bitmap []uint64, d int, nbitsMask uint32, key []byte) {
	for i := 0; i < d; i++ {
		h := FastHash32(key, uint64(i)*0x9e3779b97f4a7c15+1) & nbitsMask
		bitmap[h>>6] |= 1 << (h & 63)
	}
}

// HashTest is the fused Bloom membership test over d hash bits.
func HashTest(bitmap []uint64, d int, nbitsMask uint32, key []byte) bool {
	for i := 0; i < d; i++ {
		h := FastHash32(key, uint64(i)*0x9e3779b97f4a7c15+1) & nbitsMask
		if bitmap[h>>6]&(1<<(h&63)) == 0 {
			return false
		}
	}
	return true
}

// Seed returns the per-row seed used by the fused operations; exposed so
// bytecode emitters and native flavours stay in lockstep.
func Seed(row int) uint64 { return uint64(row)*0x9e3779b97f4a7c15 + 1 }
