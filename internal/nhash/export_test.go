package nhash

// HashN computes d 32-bit hashes of key into out, one FastHash32 per
// row seed: the composition the fused ops (HashCnt and its kin) must
// agree with, which FuzzFusedOps checks them against.
func HashN(key []byte, d int, out []uint32) {
	for i := 0; i < d; i++ {
		out[i] = FastHash32(key, uint64(i)*0x9e3779b97f4a7c15+1)
	}
}
