package pktgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// Pinned trace digests. pinnedDigests was computed by running this file
// at commit 1c13d7d (the last one that drew zipf flows from rand.Zipf)
// and is the proof that moving to the table sampler, the array pool and
// in-place key writes changed nothing that does not hang off a zipf
// draw: benign flow keys, arrival clocks and windows, and every uniform
// trace whole. A zipf draw now consumes one Float64 where rand.Zipf took
// a varying number, so whole zipf traces did change; their digests are
// the table sampler's, pinned so the next change to a zipf trace's flow
// sequence is a deliberate edit of the table, not an accident.

type digestCase struct {
	name  string
	gen   func() *Trace
	flows int // benign flows: scenario traces append their attack flows after them
}

func digestCases() []digestCase {
	var out []digestCase
	for _, flows := range []int{1, 64, 1000, 4096} {
		for _, s := range []float64{0, 1.1} {
			for _, seed := range []int64{1, 42} {
				cfg := Config{Flows: flows, Packets: 2048, ZipfS: s, Seed: seed}
				name := fmt.Sprintf("flows=%d/zipf=%g/seed=%d", flows, s, seed)
				out = append(out, digestCase{"benign/" + name, func() *Trace { return Generate(cfg) }, flows})
				for _, kind := range Scenarios() {
					kind := kind
					out = append(out, digestCase{kind.String() + "/" + name, func() *Trace {
						return GenerateAttack(AttackConfig{Base: cfg, Kind: kind})
					}, flows})
				}
			}
		}
	}
	return out
}

// traceDigest is the three digests of one trace: its benign flow keys
// (drawn before the first flow draw), its arrival clock and windows
// (functions of the config alone), and every field.
type traceDigest struct{ keys, clock, whole string }

func digestOf(tr *Trace, benignFlows int) traceDigest {
	sum := func(write func(put func(any))) string {
		h := sha256.New()
		write(func(v any) {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		})
		return hex.EncodeToString(h.Sum(nil)[:8])
	}
	clock := func(put func(any)) {
		put(tr.Arrival)
		for _, w := range tr.Windows {
			put(w.Start)
			put(w.End)
		}
	}
	return traceDigest{
		keys:  sum(func(put func(any)) { put(tr.FlowKeys[:benignFlows]) }),
		clock: sum(clock),
		whole: sum(func(put func(any)) {
			put(tr.Packets)
			put(tr.FlowKeys)
			put(tr.FlowOf)
			put(tr.Labels)
			clock(put)
			put([]byte(tr.Scenario))
		}),
	}
}

func TestPinnedDigests(t *testing.T) {
	for _, c := range digestCases() {
		got := digestOf(c.gen(), c.flows)
		if want := pinnedDigests[c.name]; got != want {
			t.Errorf("%q: {%q, %q, %q}, pinned %v", c.name, got.keys, got.clock, got.whole, want)
		}
	}
}
