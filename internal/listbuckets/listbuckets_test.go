package listbuckets

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	lb := Must(New(4, 8, 16))
	for i := 0; i < 10; i++ {
		var e [8]byte
		binary.LittleEndian.PutUint64(e[:], uint64(i))
		lb.PushBack(2, e[:])
	}
	for i := 0; i < 10; i++ {
		var e [8]byte
		if !lb.PopFront(2, e[:]) {
			t.Fatalf("pop %d: empty", i)
		}
		if got := binary.LittleEndian.Uint64(e[:]); got != uint64(i) {
			t.Fatalf("pop %d: got %d", i, got)
		}
	}
	if lb.PopFront(2, nil) {
		t.Fatal("pop from drained bucket succeeded")
	}
}

func TestBucketsIndependent(t *testing.T) {
	lb := Must(New(8, 4, 4))
	lb.PushBack(1, []byte{1, 0, 0, 0})
	lb.PushBack(5, []byte{5, 0, 0, 0})
	var e [4]byte
	if !lb.PopFront(5, e[:]) || e[0] != 5 {
		t.Fatalf("bucket 5 returned %v", e)
	}
	if !lb.PopFront(1, e[:]) || e[0] != 1 {
		t.Fatalf("bucket 1 returned %v", e)
	}
}

func TestSlabGrowsAndRecycles(t *testing.T) {
	lb := Must(New(1, 8, 2))
	var e [8]byte
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			lb.PushBack(0, e[:])
		}
		for i := 0; i < 100; i++ {
			if !lb.PopFront(0, e[:]) {
				t.Fatal("pop failed")
			}
		}
	}
	if lb.used != 0 {
		t.Fatalf("%d elements in use after balanced ops", lb.used)
	}
}

// TestModelEquivalence drives random operations against a per-bucket
// slice-of-slices model, compares observable behaviour, and audits the
// chains with CheckInvariants at the end.
func TestModelEquivalence(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nb = 8
		lb := Must(New(nb, 8, 4))
		model := make([][][8]byte, nb)
		for op := 0; op < 500; op++ {
			i := rng.Intn(nb)
			var e [8]byte
			binary.LittleEndian.PutUint64(e[:], rng.Uint64())
			switch rng.Intn(2) {
			case 0:
				lb.PushBack(i, e[:])
				model[i] = append(model[i], e)
			case 1:
				var got [8]byte
				ok := lb.PopFront(i, got[:])
				if ok != (len(model[i]) > 0) {
					return false
				}
				if ok {
					if got != model[i][0] {
						return false
					}
					model[i] = model[i][1:]
				}
			}
			if int(lb.lens[i]) != len(model[i]) {
				return false
			}
		}
		return lb.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
