package bitops

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFFSKnownValues(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {0x8000000000000000, 64},
		{0b1010_1000, 4}, {^uint64(0), 1},
	}
	for _, c := range cases {
		if got := FFS(c.x); got != c.want {
			t.Errorf("FFS(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSoftMatchesHard(t *testing.T) {
	if err := quick.Check(func(x uint64) bool {
		return SoftFFS(x) == FFS(x)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCTZProperties(t *testing.T) {
	if err := quick.Check(func(x uint64) bool {
		if x == 0 {
			return CTZ(x) == 64
		}
		return CTZ(x) == FFS(x)-1 && CTZ(x) == bits.TrailingZeros64(x)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapSetClearTest(t *testing.T) {
	b := NewBitmap(200)
	for _, i := range []int{0, 1, 63, 64, 127, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
}

func TestBitmapFirstSet(t *testing.T) {
	b := NewBitmap(256)
	if got := b.FirstSet(0); got != -1 {
		t.Fatalf("FirstSet on empty = %d, want -1", got)
	}
	b.Set(7)
	b.Set(130)
	if got := b.FirstSet(0); got != 7 {
		t.Fatalf("FirstSet(0) = %d, want 7", got)
	}
	if got := b.FirstSet(8); got != 130 {
		t.Fatalf("FirstSet(8) = %d, want 130", got)
	}
	if got := b.FirstSet(131); got != -1 {
		t.Fatalf("FirstSet(131) = %d, want -1", got)
	}
	if got := b.FirstSet(-5); got != 7 {
		t.Fatalf("FirstSet(-5) = %d, want 7", got)
	}
	if got := b.FirstSet(1000); got != -1 {
		t.Fatalf("FirstSet(1000) = %d, want -1", got)
	}
}

func TestBitmapFirstSetMatchesLinearScan(t *testing.T) {
	if err := quick.Check(func(words [4]uint64, from uint8) bool {
		b := Bitmap(words[:])
		start := int(from) % 260
		want := -1
		for i := start; i < 256; i++ {
			if b.Test(i) {
				want = i
				break
			}
		}
		return b.FirstSet(start) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}
