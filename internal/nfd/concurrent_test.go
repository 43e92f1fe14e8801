package nfd

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/runtime"
)

// TestConcurrentCreateDifferingOptions is the proof that per-module
// configuration is a function of (Options, built instance) and nothing
// else: 24 modules with differing tier, map-memory quota, stats and
// sharding are created and fed at the same time with no build lock, and
// each must come out exactly as a twin built alone with the same request
// — requested tier on its VMs, same verdict tally, same estimates — with
// every quota breach refusing its own module and no other. Meaningful
// under -race (make race), where a write to shared construction state
// would be reported.
func TestConcurrentCreateDifferingOptions(t *testing.T) {
	tiers := []string{"wire", "predecoded", "jit"}
	nfs := []struct{ name, flavor string }{
		{"cmsketch", "enetstl"}, {"conntrack", "ebpf"}, {"heavykeeper", "ebpf"},
		{"conntrack", "kernel"}, {"nitrosketch", "enetstl"},
	}
	const n = 24
	reqs := make([]CreateRequest, n)
	breach := make([]bool, n)
	for i := range reqs {
		nfi := nfs[i%len(nfs)]
		o := runtime.Options{Tier: tiers[i%len(tiers)], Stats: i%2 == 0}
		switch i % 4 {
		case 1:
			o.Quota = &runtime.Quota{MapBytes: 1 << 24} // ample
		case 3:
			o.Quota = &runtime.Quota{MapBytes: 64} // below any map here
			breach[i] = true
		}
		if i%8 == 6 && nfi.name == "conntrack" {
			o.Shards, o.PerCPU = 2, true
		}
		reqs[i] = CreateRequest{
			Name: nfi.name, Flavor: nfi.flavor, Options: o,
			Trace: runtime.TraceSpec{Flows: 64, Packets: 300, Seed: int64(1 + i%3)},
		}
	}
	batch := func(i int) runtime.TraceSpec {
		return runtime.TraceSpec{Flows: 64, Packets: 1500, Zipf: 1.1, Seed: int64(1 + i%3)}
	}

	type outcome struct {
		refused   bool
		verdicts  map[string]uint64
		estimates []uint32
	}
	// run creates reqs[i] in reg, checks its tier, replays one batch and
	// reads its state back. It reports through the returned error so it
	// is safe off the test goroutine.
	run := func(reg *Registry, i int) (outcome, error) {
		m, err := reg.Create(reqs[i])
		if err != nil {
			if errors.Is(err, runtime.ErrQuota) {
				return outcome{refused: true}, nil
			}
			return outcome{}, fmt.Errorf("module %d (%s/%s): %w", i, reqs[i].Name, reqs[i].Flavor, err)
		}
		for _, inst := range m.insts {
			for _, machine := range runtime.VMs(inst) {
				if got := machine.Tier().String(); got != reqs[i].Options.Tier {
					return outcome{}, fmt.Errorf("module %d (%s/%s): VM on tier %s, requested %s",
						i, reqs[i].Name, reqs[i].Flavor, got, reqs[i].Options.Tier)
				}
			}
		}
		if (m.stats != nil) != reqs[i].Options.Stats {
			return outcome{}, fmt.Errorf("module %d: stats attached = %v, requested %v",
				i, m.stats != nil, reqs[i].Options.Stats)
		}
		var res harness.BatchResult
		if res, err = m.Ingest(batch(i)); err != nil {
			return outcome{}, fmt.Errorf("module %d ingest: %w", i, err)
		}
		out := outcome{verdicts: res.VerdictMap}
		for f := 0; f < 16; f++ {
			key, _ := m.FlowKey(f)
			if est, ok := m.Estimate(key); ok {
				out.estimates = append(out.estimates, est)
			}
		}
		return out, nil
	}

	concurrent := NewRegistry()
	defer concurrent.Close()
	got := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(concurrent, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		return
	}

	serial := NewRegistry()
	defer serial.Close()
	live := 0
	for i := 0; i < n; i++ {
		want, err := run(serial, i)
		if err != nil {
			t.Fatalf("serial twin: %v", err)
		}
		if got[i].refused != breach[i] {
			t.Errorf("module %d (%s/%s, quota %+v): refused = %v, want %v",
				i, reqs[i].Name, reqs[i].Flavor, reqs[i].Options.Quota, got[i].refused, breach[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("module %d (%s/%s tier %s) diverges from its serial twin:\n  concurrent %+v\n  serial     %+v",
				i, reqs[i].Name, reqs[i].Flavor, reqs[i].Options.Tier, got[i], want)
		}
		if !got[i].refused {
			live++
		}
	}
	if have := len(concurrent.List()); have != live {
		t.Errorf("%d modules registered, want %d: a refused create leaves nothing behind", have, live)
	}
}
