// Estimator oracles: for every NF with a control-plane estimator, the
// error bound its estimates must hold against ground truth, stated once
// in the geometry construct builds the NF with. Ground truth is
// whatever per-flow packet counts the caller observed reaching the NF:
// every packet on a benign replay, the admitted substream behind an
// overload guard (shed and head-sampled packets never reached the
// structure) — which is why a guarded replay's bound is never looser
// than the bare one's: the bounds grow with volume.
//
// The bounds are deterministic facts about this repo's seeded replays
// (every RNG involved is seeded), stated with the structures'
// analytical error terms plus slack, so they hold for any trace in the
// same regime rather than pinning exact values.

package nfcatalog

import (
	"fmt"

	"enetstl/internal/nf"
)

// Bound checks an estimator against counts, the per-flow ground truth
// indexed like keys, and returns the numeric error bound it held the
// estimates to (0 for pure membership oracles).
type Bound func(keys [][nf.KeyLen]byte, counts []uint32) (bound float64, err error)

// pinnedFlows is the flow-table size up to which the tight slacks below
// were pinned: the 256 flows of every benign grid trace.
const pinnedFlows = 256

// slack picks the additive slack of a collision-sensitive bound. It
// covers coincidences between distinct flows (a count-min row shared
// with a heavy flow, a HeavyKeeper fingerprint match), whose number
// grows with the flow table, and was pinned in two regimes: tables up to
// pinnedFlows, and the several-hundred-flow tables adversarial traces
// carry. The choice is made from the table the oracle is handed, never
// from who is asking.
func slack(flows int, tight, wide uint32) uint32 {
	if flows <= pinnedFlows {
		return tight
	}
	return wide
}

func sum(counts []uint32) (n uint64) {
	for _, c := range counts {
		n += uint64(c)
	}
	return n
}

// countMinBound: count-min never undercounts; the row-collision
// overcount is ~N/width per row, taken min over the rows, so
// rows·N/width plus slack is orders of magnitude of room.
func countMinBound(est func([]byte) uint32) Bound {
	return func(keys [][nf.KeyLen]byte, counts []uint32) (float64, error) {
		rows, width := uint64(cmsketchCfg.Rows), uint64(cmsketchCfg.Width)
		bound := float64(rows*sum(counts)/width + uint64(slack(len(keys), 16, 32)))
		for f, key := range keys {
			tc, got := counts[f], est(key[:])
			if got < tc {
				return bound, fmt.Errorf("count-min undercount: flow %d est %d < true %d", f, got, tc)
			}
			if float64(got-tc) > bound {
				return bound, fmt.Errorf("count-min overcount: flow %d est %d, true %d, bound +%.0f", f, got, tc, bound)
			}
		}
		return bound, nil
	}
}

// nitroBound: sampled updates (probability 1/sample, increment sample)
// keep the estimate unbiased with stddev ~sqrt((sample-1)·true)·4; a
// ±(true/2 + 24·sample) band is >6 sigma for every flow in this regime.
func nitroBound(est func([]byte) uint32) Bound {
	return func(keys [][nf.KeyLen]byte, counts []uint32) (float64, error) {
		sample := uint32(1) << nitrosketchCfg.ProbLog2
		bound := float64(sum(counts)/2 + 24*uint64(sample))
		for f, key := range keys {
			tc, got := counts[f], est(key[:])
			band := tc/2 + 24*sample
			if got > tc+band || got+band < tc {
				return bound, fmt.Errorf("nitrosketch estimate %d outside true %d ± %d (flow %d)", got, tc, band, f)
			}
		}
		return bound, nil
	}
}

// heavyKeeperBound: count-with-exponential-decay never overcounts a
// flow's own fingerprint (the slack covers fingerprint coincidences),
// and a heavy flow (≥10% of the stream) must retain half its count.
func heavyKeeperBound(est func([]byte) uint32) Bound {
	return func(keys [][nf.KeyLen]byte, counts []uint32) (float64, error) {
		over, heavy := slack(len(keys), 4, 16), uint32(sum(counts)/10)
		for f, key := range keys {
			tc, got := counts[f], est(key[:])
			if got > tc+over {
				return float64(over), fmt.Errorf("heavykeeper overcount: flow %d est %d > true %d + %d", f, got, tc, over)
			}
			if tc >= heavy && got < tc/2 {
				return float64(over), fmt.Errorf("heavykeeper lost a heavy flow: flow %d est %d, true %d", f, got, tc)
			}
		}
		return float64(over), nil
	}
}

// spaceSavingBound: a monitored key overshoots by at most the stream
// error N/slots (doubled for slack); unmonitored keys read 0.
func spaceSavingBound(est func([]byte) uint32) Bound {
	return func(keys [][nf.KeyLen]byte, counts []uint32) (float64, error) {
		bound := float64(2 * sum(counts) / uint64(spacesavingCfg.Slots))
		for f, key := range keys {
			tc, got := counts[f], est(key[:])
			if got != 0 && float64(got) > float64(tc)+bound {
				return bound, fmt.Errorf("space-saving overcount: flow %d est %d, true %d, bound +%.0f", f, got, tc, bound)
			}
		}
		return bound, nil
	}
}

// vbfBound: membership of the set inserted at construction survives any
// replay (the datapath only queries), so no flow may go missing from
// the set construct put it in — whatever the counts.
func vbfBound(query func([]byte) uint32) Bound {
	return func(keys [][nf.KeyLen]byte, _ []uint32) (float64, error) {
		for f, key := range keys {
			if mask := query(key[:]); mask&(1<<uint(f%VBFSets)) == 0 {
				return 0, fmt.Errorf("vbf false negative: flow %d missing from set %d (mask %#x)", f, f%VBFSets, mask)
			}
		}
		return 0, nil
	}
}
