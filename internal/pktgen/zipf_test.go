package pktgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testZipf(s float64, n int) zipf {
	return newZipf(s, make([]float64, n), make([]int32, n))
}

// zipfPMF is the law itself, P(k) = (k+1)^-s / sum, computed the slow
// way: one math.Pow per flow.
func zipfPMF(s float64, n int) []float64 {
	p := make([]float64, n)
	var sum float64
	for k := range p {
		p[k] = math.Pow(float64(k+1), -s)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
	return p
}

// pooledBins groups flows into consecutive bins of at least minMass
// probability each (the far tail of a steep law expects less than one
// draw per flow); bin[k] is flow k's bin.
func pooledBins(pmf []float64, minMass float64) (bin []int, bins int) {
	bin = make([]int, len(pmf))
	var mass float64
	for k, p := range pmf {
		bin[k] = bins
		if mass += p; mass >= minMass {
			bins++
			mass = 0
		}
	}
	if mass > 0 { // an underweight remainder joins the last full bin
		if bins == 0 {
			return bin, 1
		}
		for k := len(bin) - 1; bin[k] == bins; k-- {
			bin[k] = bins - 1
		}
	}
	return bin, bins
}

// chiSquareBound is a generous acceptance bound for a chi-square
// statistic with df degrees of freedom: five standard deviations above
// its mean. The draws are seeded, so the tests are deterministic; the
// bound says how wrong a sampler has to be to fail, not how unlucky.
func chiSquareBound(df int) float64 {
	return float64(df) + 5*math.Sqrt(2*float64(df))
}

const zipfDraws = 2_000_000

var zipfGrid = struct {
	flows []int
	skews []float64
}{[]int{1, 2, 64, 1000, 4096}, []float64{1.001, 1.1, 2.5}}

// TestZipfChiSquare: 2 M draws fit the analytic pmf.
func TestZipfChiSquare(t *testing.T) {
	for _, n := range zipfGrid.flows {
		for _, s := range zipfGrid.skews {
			t.Run(fmt.Sprintf("flows=%d/s=%g", n, s), func(t *testing.T) {
				pmf := zipfPMF(s, n)
				bin, bins := pooledBins(pmf, 10.0/zipfDraws)
				want := make([]float64, bins)
				for k, p := range pmf {
					want[bin[k]] += p * zipfDraws
				}
				z := testZipf(s, n)
				rng := rand.New(rand.NewSource(int64(n)))
				got := make([]float64, bins)
				for i := 0; i < zipfDraws; i++ {
					k := z.at(rng.Float64())
					if k < 0 || k >= n {
						t.Fatalf("draw %d: flow %d outside [0, %d)", i, k, n)
					}
					got[bin[k]]++
				}
				var chi2 float64
				for b := range want {
					d := got[b] - want[b]
					chi2 += d * d / want[b]
				}
				if bound := chiSquareBound(bins - 1); chi2 > bound {
					t.Fatalf("chi-square %.1f over %d bins, bound %.1f", chi2, bins, bound)
				}
			})
		}
	}
}

// TestZipfMatchesRandZipf: the table sampler and rand.Zipf, the
// generator's law until PR 18 and kept here as the reference, draw from
// the same distribution (two-sample chi-square, equal sample sizes).
func TestZipfMatchesRandZipf(t *testing.T) {
	for _, n := range zipfGrid.flows[1:] { // rand.Zipf has nothing to say about one flow
		for _, s := range zipfGrid.skews {
			t.Run(fmt.Sprintf("flows=%d/s=%g", n, s), func(t *testing.T) {
				bin, bins := pooledBins(zipfPMF(s, n), 10.0/zipfDraws)
				z := testZipf(s, n)
				rng := rand.New(rand.NewSource(int64(n)))
				ref := rand.NewZipf(rand.New(rand.NewSource(int64(n)+1)), s, 1, uint64(n-1))
				ours, theirs := make([]float64, bins), make([]float64, bins)
				for i := 0; i < zipfDraws; i++ {
					ours[bin[z.at(rng.Float64())]]++
					theirs[bin[ref.Uint64()]]++
				}
				var chi2 float64
				for b := range ours {
					if sum := ours[b] + theirs[b]; sum > 0 {
						d := ours[b] - theirs[b]
						chi2 += d * d / sum
					}
				}
				if bound := chiSquareBound(bins - 1); chi2 > bound {
					t.Fatalf("two-sample chi-square %.1f over %d bins, bound %.1f", chi2, bins, bound)
				}
			})
		}
	}
}

// TestRecycledArraysSameBytes: the same Config gives identical bytes
// whatever the recycled arrays held before, because the generators
// write every element they hand out.
func TestRecycledArraysSameBytes(t *testing.T) {
	for _, c := range digestCases() {
		if c.flows != 64 {
			continue
		}
		first := c.gen()
		want := digestOf(first, c.flows)
		first.Release()
		// Dirty the set the next build will draw: other flows, other
		// labels, every packet byte set.
		dirty := GenerateAttack(AttackConfig{Base: Config{Flows: 4096, Packets: 4096, ZipfS: 2, Seed: 99}, Kind: ScenarioChurn})
		for i := range dirty.Packets {
			for j := range dirty.Packets[i] {
				dirty.Packets[i][j] = 0xff
			}
			dirty.Labels[i] = 0xff
		}
		dirty.Release()
		again := c.gen()
		if got := digestOf(again, c.flows); got != want {
			t.Errorf("%s: second build %v, first %v", c.name, got, want)
		}
		again.Release()
	}
}

// TestReleaseEmptiesTrace: a released trace holds nothing, so a use
// after release fails on the spot instead of reading the next batch.
func TestReleaseEmptiesTrace(t *testing.T) {
	tr := GenerateAttack(AttackConfig{Base: Config{Flows: 8, Packets: 64, Seed: 1}, Kind: ScenarioSYNFlood})
	tr.Release()
	if tr.Packets != nil || tr.FlowKeys != nil || tr.FlowOf != nil || tr.Labels != nil || tr.Arrival != nil {
		t.Fatalf("released trace still holds arrays: %+v", tr)
	}
	tr.Release() // and releasing it again is harmless
	c := Generate(Config{Flows: 8, Packets: 64, Seed: 1}).Clone()
	c.Release() // a copy owns no pooled arrays
}

// FuzzZipfSampler: for any skew, flow count and u the guide-table
// sampler answers in range, monotonically in u, and exactly as a plain
// linear scan of the same CDF does.
func FuzzZipfSampler(f *testing.F) {
	f.Add(1.1, uint16(4095), 0.5)
	f.Add(1.001, uint16(0), 0.999999)
	f.Add(2.5, uint16(999), 0.0)
	f.Add(30.0, uint16(63), 1-0x1p-53)
	f.Add(1.1, uint16(2), 2.0/3-0x1p-53)
	f.Fuzz(func(t *testing.T, s float64, flows uint16, r float64) {
		if !(s > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
			t.Skip()
		}
		n := int(flows)%16384 + 1
		u := math.Abs(r)
		u -= math.Floor(u) // [0, 1)
		z := testZipf(math.Max(s, 1.001), n)

		linear := func(u float64) int {
			k := 0
			for z.cdf[k] <= u {
				k++
			}
			return k
		}
		k := z.at(u)
		if k < 0 || k >= n {
			t.Fatalf("at(%v) = %d outside [0, %d)", u, k, n)
		}
		if want := linear(u); k != want {
			t.Fatalf("at(%v) = %d, linear scan %d (s=%v n=%d)", u, k, want, s, n)
		}
		for _, above := range []float64{math.Nextafter(u, 1), u + (1-u)/2} {
			if above >= 1 {
				continue
			}
			ka := z.at(above)
			if ka < k {
				t.Fatalf("at(%v) = %d but at(%v) = %d (s=%v n=%d)", u, k, above, ka, s, n)
			}
			if want := linear(above); ka != want {
				t.Fatalf("at(%v) = %d, linear scan %d (s=%v n=%d)", above, ka, want, s, n)
			}
		}
	})
}

// TestZipfTablesReused draws flows through one array set whose tables
// are kept across traces, and through a fresh set per trace: the skew
// and flow count change between traces, come back, and repeat, and
// every trace's draws and tables must be the fresh build's bit for bit.
func TestZipfTablesReused(t *testing.T) {
	steps := []struct {
		flows int
		s     float64
	}{{4096, 1.1}, {4096, 1.1}, {64, 1.1}, {4096, 1.3}, {4096, 1.1}}
	kept := new(arrays)
	for i, st := range steps {
		cfg := Config{Flows: st.flows, ZipfS: st.s}
		got := kept.flowDraw(cfg, rand.New(rand.NewSource(int64(i))))
		want := new(arrays).flowDraw(cfg, rand.New(rand.NewSource(int64(i))))
		for k := range want.z.cdf {
			if got.z.cdf[k] != want.z.cdf[k] || got.z.guide[k] != want.z.guide[k] {
				t.Fatalf("step %d %+v: tables differ from a fresh build at flow %d", i, st, k)
			}
		}
		for n := 0; n < 4096; n++ {
			if g, w := got.next(), want.next(); g != w {
				t.Fatalf("step %d %+v: draw %d = flow %d, a fresh build draws %d", i, st, n, g, w)
			}
		}
	}
}
