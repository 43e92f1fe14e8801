package simd

import (
	"testing"
	"testing/quick"
)

func linearFind32(arr []uint32, key uint32) int {
	for i, v := range arr {
		if v == key {
			return i
		}
	}
	return -1
}

func TestFindU32MatchesLinear(t *testing.T) {
	if err := quick.Check(func(arr []uint32, key uint32) bool {
		return FindU32(arr, key) == linearFind32(arr, key)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindU32FirstOfDuplicates(t *testing.T) {
	arr := make([]uint32, 20)
	for i := range arr {
		arr[i] = 5
	}
	if got := FindU32(arr, 5); got != 0 {
		t.Fatalf("FindU32 = %d, want 0", got)
	}
}

func TestFindU32TailResidue(t *testing.T) {
	// Lengths that are not multiples of the lane width exercise the
	// scalar tail.
	for n := 0; n < 25; n++ {
		arr := make([]uint32, n)
		for i := range arr {
			arr[i] = uint32(i + 1)
		}
		for i := range arr {
			if got := FindU32(arr, uint32(i+1)); got != i {
				t.Fatalf("n=%d: FindU32(%d) = %d, want %d", n, i+1, got, i)
			}
		}
		if got := FindU32(arr, 999); got != -1 {
			t.Fatalf("n=%d: missing key found at %d", n, got)
		}
	}
}

func TestFindU16MatchesLinear(t *testing.T) {
	if err := quick.Check(func(arr []uint16, key uint16) bool {
		want := -1
		for i, v := range arr {
			if v == key {
				want = i
				break
			}
		}
		return FindU16(arr, key) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxMatchLinear(t *testing.T) {
	if err := quick.Check(func(arr []uint32) bool {
		gi, gv := MinU32(arr)
		wi, wv := -1, uint32(0)
		for i, v := range arr {
			if wi == -1 || v < wv {
				wi, wv = i, v
			}
		}
		if gi != wi || (wi >= 0 && gv != wv) {
			return false
		}
		// The first maximum is the first minimum of the complements.
		neg := make([]uint32, len(arr))
		for i, v := range arr {
			neg[i] = ^v
		}
		gi, gv = MinU32(neg)
		wi, wv = -1, 0
		for i, v := range arr {
			if wi == -1 || v > wv {
				wi, wv = i, v
			}
		}
		return gi == wi && (wi < 0 || ^gv == wv)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinU32FirstOfTies(t *testing.T) {
	arr := []uint32{9, 3, 7, 3, 3, 8, 1, 1, 1, 2}
	idx, val := MinU32(arr)
	if idx != 6 || val != 1 {
		t.Fatalf("MinU32 = (%d,%d), want (6,1)", idx, val)
	}
}

func TestVecOps(t *testing.T) {
	mem := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	v := VecLoad(mem)
	m := VecCmpEq(v, 5)
	if got := VecMoveMask(m); got != 1<<4 {
		t.Fatalf("movemask = %#x, want %#x", got, 1<<4)
	}
}
