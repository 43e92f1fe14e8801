package nhash

import (
	"testing"
	"testing/quick"
)

func TestFastHash64Deterministic(t *testing.T) {
	key := []byte("0123456789abcdef")
	a := FastHash64(key, 1)
	b := FastHash64(key, 1)
	if a != b {
		t.Fatalf("same input hashed differently: %#x vs %#x", a, b)
	}
	if FastHash64(key, 2) == a {
		t.Fatal("different seeds produced the same hash")
	}
}

func TestFastHash64LengthSensitive(t *testing.T) {
	// Zero padding of the tail word must not collide with explicit
	// zeros, because length is mixed into the initial state.
	a := FastHash64([]byte{1, 2, 3}, 7)
	b := FastHash64([]byte{1, 2, 3, 0}, 7)
	if a == b {
		t.Fatal("length not mixed into hash")
	}
}

func TestFastHash64Avalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output bits;
	// accept a generous range.
	key := make([]byte, 16)
	base := FastHash64(key, 0)
	for i := 0; i < 16*8; i++ {
		key[i/8] ^= 1 << (i % 8)
		h := FastHash64(key, 0)
		key[i/8] ^= 1 << (i % 8)
		d := popcnt(base ^ h)
		if d < 8 || d > 56 {
			t.Fatalf("bit %d: weak avalanche, %d differing bits", i, d)
		}
	}
}

func popcnt(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestHashNDistinctRows(t *testing.T) {
	key := []byte("flow-5-tuple!")
	out := make([]uint32, 8)
	HashN(key, 8, out)
	seen := make(map[uint32]bool)
	for _, h := range out {
		if seen[h] {
			t.Fatalf("duplicate row hash %#x", h)
		}
		seen[h] = true
	}
}

func TestHashCntHashMinRoundTrip(t *testing.T) {
	m := Matrix{Rows: 4, Mask: 255}
	buf := make([]uint32, 4*256)
	key := []byte("elephant-flow")
	for i := 0; i < 10; i++ {
		HashCnt(buf, m, key)
	}
	if got := HashMin(buf, m, key); got != 10 {
		t.Fatalf("HashMin = %d, want 10", got)
	}
	// A different key should (almost surely) read a smaller estimate.
	if got := HashMin(buf, m, []byte("mouse-flow")); got > 10 {
		t.Fatalf("unrelated key estimate %d > 10", got)
	}
}

func TestHashMinIsUpperBound(t *testing.T) {
	// Count-min property: estimate >= true count, for any insertion mix.
	if err := quick.Check(func(keys [][8]byte) bool {
		m := Matrix{Rows: 3, Mask: 63}
		buf := make([]uint32, 3*64)
		truth := make(map[[8]byte]uint32)
		for _, k := range keys {
			HashCnt(buf, m, k[:])
			truth[k]++
		}
		for k, n := range truth {
			if HashMin(buf, m, k[:]) < n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashSetHashTestNoFalseNegatives(t *testing.T) {
	if err := quick.Check(func(keys [][8]byte) bool {
		bm := make([]uint64, 1024/64)
		for _, k := range keys {
			HashSet(bm, 4, 1023, k[:])
		}
		for _, k := range keys {
			if !HashTest(bm, 4, 1023, k[:]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashTestEmptyBitmapRejects(t *testing.T) {
	bm := make([]uint64, 16)
	if HashTest(bm, 4, 1023, []byte("anything")) {
		t.Fatal("empty Bloom filter claimed membership")
	}
}

func TestSeedStable(t *testing.T) {
	if Seed(0) != 1 {
		t.Fatalf("Seed(0) = %#x, want 1", Seed(0))
	}
	if Seed(1) == Seed(2) {
		t.Fatal("row seeds collide")
	}
}
