package bitops

// Software references for the hardware-lowered bit operations: the
// shift-and-test sequences an eBPF program must inline, which FuzzBitops
// and TestSoftMatchesHard check FFS and Popcnt against and the Table 2
// micro-benchmarks compare with.

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

// SoftPopcnt is the software population count (parallel reduction).
func SoftPopcnt(x uint64) int {
	x = x - (x>>1)&0x5555555555555555
	x = x&0x3333333333333333 + (x>>2)&0x3333333333333333
	x = (x + x>>4) & 0x0f0f0f0f0f0f0f0f
	return int(x * 0x0101010101010101 >> 56)
}
