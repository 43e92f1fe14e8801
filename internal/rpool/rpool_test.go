package rpool

import (
	"math"
	"testing"
)

func TestPoolDeterministicPerSeed(t *testing.T) {
	a := Must(NewPool(64, 42))
	b := Must(NewPool(64, 42))
	for i := 0; i < 200; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := Must(NewPool(64, 43))
	same := true
	a2 := Must(NewPool(64, 42))
	for i := 0; i < 16; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestPoolAutoRefill(t *testing.T) {
	p := Must(NewPool(8, 1))
	if p.Refills != 1 {
		t.Fatalf("initial refills = %d, want 1", p.Refills)
	}
	for i := 0; i < 8*3; i++ {
		p.Next()
	}
	if p.Refills != 3 {
		t.Fatalf("refills after 24 draws from pool of 8 = %d, want 3", p.Refills)
	}
}

func TestPoolUniformity(t *testing.T) {
	p := Must(NewPool(1024, 7))
	const n = 1 << 16
	buckets := make([]int, 16)
	for i := 0; i < n; i++ {
		buckets[p.Next()>>28]++
	}
	want := n / 16
	for i, c := range buckets {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d count %d far from %d", i, c, want)
		}
	}
}

func TestGeoPoolMean(t *testing.T) {
	for _, prob := range []float64{1, 0.5, 0.25, 1.0 / 64} {
		g := Must(NewGeoPool(1024, prob, 11))
		const n = 1 << 15
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.Next())
		}
		mean := sum / n
		want := 1 / prob
		if math.Abs(mean-want)/want > 0.1 {
			t.Fatalf("p=%v: mean %.3f, want ~%.3f", prob, mean, want)
		}
	}
}

func TestGeoPoolMinimumOne(t *testing.T) {
	g := Must(NewGeoPool(256, 0.9, 3))
	for i := 0; i < 4096; i++ {
		if g.Next() < 1 {
			t.Fatal("geometric sample below 1")
		}
	}
}

func TestGeoPoolProbOne(t *testing.T) {
	g := Must(NewGeoPool(16, 1, 3))
	for i := 0; i < 64; i++ {
		if got := g.Next(); got != 1 {
			t.Fatalf("p=1 sample = %d, want 1", got)
		}
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero pool", func() { Must(NewPool(0, 1)) })
	mustPanic("zero geo pool", func() { Must(NewGeoPool(0, 0.5, 1)) })
	mustPanic("bad prob", func() { Must(NewGeoPool(8, 1.5, 1)) })
	mustPanic("zero prob", func() { Must(NewGeoPool(8, 0, 1)) })
}
