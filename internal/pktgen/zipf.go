package pktgen

import "math"

// zipf samples flow indices k in [0, n) with P(k) ∝ (k+1)^-s — the law
// of a rand.Zipf with v = 1 and imax = n-1 — by inverting the CDF
// through a guide table. rand.Zipf's rejection sampler pays one
// math.Exp and one math.Log per draw; this pays its transcendentals
// once per table, the move eNetSTL's random pool makes for per-packet
// RNG cost.
type zipf struct {
	// cdf[k] = P(flow <= k); the last entry is exactly 1.
	cdf []float64
	// guide[j] is a lower bound, almost always tight, on the answer for
	// every u in cell j = [j/n, (j+1)/n). One cell per flow keeps the
	// expected forward scan under two steps whatever the skew.
	guide []int32
}

// newZipf fills the caller's arrays (both of length n >= 1) for skew s.
func newZipf(s float64, cdf []float64, guide []int32) zipf {
	n := len(cdf)
	// Smallest prime factor of every composite m <= n, held in guide
	// (slot m-1) until the guide itself is built; primes stay 0.
	clear(guide)
	for p := 2; p*p <= n; p++ {
		if guide[p-1] != 0 {
			continue
		}
		for m := p * p; m <= n; m += p {
			if guide[m-1] == 0 {
				guide[m-1] = int32(p)
			}
		}
	}
	// Weights m^-s. The power is completely multiplicative, so only the
	// primes pay for a transcendental (564 of 4096) — exp(-s ln m), what
	// math.Pow computes for a fractional exponent, without its integer-
	// power loop; the rest are one product.
	cdf[0] = 1
	for m := 2; m <= n; m++ {
		if p := int(guide[m-1]); p != 0 {
			cdf[m-1] = cdf[p-1] * cdf[m/p-1]
		} else {
			cdf[m-1] = math.Exp(-s * math.Log(float64(m)))
		}
	}
	var sum float64
	for k, w := range cdf {
		sum += w
		cdf[k] = sum
	}
	norm := 1 / sum
	for k := range cdf {
		cdf[k] *= norm
	}
	cdf[n-1] = 1 // whatever the rounding, every u < 1 finds its flow

	// guide[j] = first k with cdf[k] > j/n, shaded down by more than the
	// rounding of u*n in at, so no u that lands in cell j can lie below
	// the threshold its guide entry was built for.
	step := (1 - 0x1p-50) / float64(n)
	k := 0
	for j := range guide {
		for t := float64(j) * step; cdf[k] <= t; {
			k++
		}
		guide[j] = int32(k)
	}
	return zipf{cdf: cdf, guide: guide}
}

// at maps u in [0, 1) to the first flow whose cumulative mass exceeds
// it: one index into the guide and a short forward scan.
func (z zipf) at(u float64) int {
	k := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[k] <= u {
		k++
	}
	return k
}
