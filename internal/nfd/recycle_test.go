package nfd

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/harness"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// recycleBatches is six spec batches of differing shape, so a recycled
// array set is re-cut shorter and longer and carries labels and an
// arrival clock on some batches only.
func recycleBatches() []runtime.TraceSpec {
	return []runtime.TraceSpec{
		{Flows: 64, Packets: 700, Zipf: 1.1, Seed: 3},
		{Flows: 300, Packets: 400, Seed: 4},
		{Flows: 64, Packets: 900, Zipf: 1.1, Seed: 5, Scenario: "syn-flood"},
		{Flows: 128, Packets: 500, Zipf: 1.3, Seed: 6},
		{Flows: 64, Packets: 800, Seed: 7, Scenario: "churn"},
		{Flows: 64, Packets: 700, Zipf: 1.1, Seed: 3},
	}
}

// tally is what one batch answers, without its timing.
type tally struct {
	packets       int
	shed, sampled uint64
	verdicts      harness.VerdictCounts
}

func tallyOf(r harness.BatchResult) tally {
	return tally{r.Packets, r.Shed, r.Sampled, r.Verdicts}
}

// scribble overwrites whatever packet array the pool hands out next, so
// an NF still reading a released batch sees garbage at once rather than
// the next batch's (possibly identical) bytes.
func scribble() {
	tr := pktgen.NewTrace(4096)
	for i := range tr.Packets {
		for j := range tr.Packets[i] {
			tr.Packets[i][j] = 0xa5
		}
	}
	tr.Release()
}

// ingestRecycled feeds the batches through Module.Ingest, which
// releases each one, scribbling over the released arrays in between.
func ingestRecycled(m *Module, batches []runtime.TraceSpec) ([]tally, error) {
	var out []tally
	for i, spec := range batches {
		res, err := m.Ingest(spec)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		out = append(out, tallyOf(res))
		scribble()
	}
	return out, nil
}

// ingestFresh is Ingest by hand with traces that are never released,
// hence never recycled: Build, PrepareTrace, one pass of the shard
// runner.
func ingestFresh(m *Module, batches []runtime.TraceSpec) ([]tally, error) {
	var out []tally
	for i, spec := range batches {
		tr, err := spec.Build()
		if err != nil {
			return nil, err
		}
		nfcatalog.PrepareTrace(m.Name, tr)
		res, err := harness.ReplayShards(m.insts, tr.Shard(len(m.insts)), m.tickBase, 1, false)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		var sum harness.BatchResult
		for _, r := range res {
			sum.Add(r)
		}
		out = append(out, tallyOf(sum))
	}
	return out, nil
}

// estimates reads the module's estimator for every seed flow; nil when
// the NF has none.
func estimates(m *Module) []uint32 {
	var out []uint32
	for f := range m.flows {
		key, _ := m.FlowKey(f)
		est, ok := m.Estimate(key)
		if !ok {
			return nil
		}
		out = append(out, est)
	}
	return out
}

// TestIngestRecyclesBatches: every NF in every flavour it supports,
// unsharded and on four shards, answers six recycled batches exactly as
// a twin fed traces that are never recycled. An NF that kept a slice of
// packet memory past Process diverges as soon as the array it points
// into is overwritten — which the scribbling makes immediate.
func TestIngestRecyclesBatches(t *testing.T) {
	batches := recycleBatches()
	seed := runtime.TraceSpec{Flows: 64, Packets: 300, Seed: 2}
	for _, name := range nfcatalog.Names() {
		for _, fl := range difftest.SupportedFlavors(name) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", name, fl, shards), func(t *testing.T) {
					reg := NewRegistry()
					defer reg.Close()
					req := CreateRequest{Name: name, Flavor: fl.String(), Options: runtime.Options{Shards: shards}, Trace: seed}
					recycled, err := reg.Create(req)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := reg.Create(req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ingestRecycled(recycled, batches)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ingestFresh(fresh, batches)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("batch answers diverge:\n  recycled %+v\n  fresh    %+v", got, want)
					}
					if g, w := estimates(recycled), estimates(fresh); !reflect.DeepEqual(g, w) {
						t.Errorf("estimates diverge:\n  recycled %v\n  fresh    %v", g, w)
					}
				})
			}
		}
	}
}

// TestConcurrentIngestRecycling: eight modules ingesting at once share
// the array pool and nothing else; each must answer as it does alone.
// Meaningful under -race, where two batches on one array would be
// reported.
func TestConcurrentIngestRecycling(t *testing.T) {
	nfs := []struct{ name, flavor string }{
		{"cmsketch", "enetstl"}, {"conntrack", "ebpf"}, {"heavykeeper", "ebpf"}, {"timewheel", "enetstl"},
		{"conntrack", "kernel"}, {"nitrosketch", "enetstl"}, {"bloom", "ebpf"}, {"cuckooswitch", "kernel"},
	}
	batches := recycleBatches()
	reg := NewRegistry()
	defer reg.Close()
	create := func(i int) *Module {
		m, err := reg.Create(CreateRequest{
			Name: nfs[i].name, Flavor: nfs[i].flavor,
			Trace: runtime.TraceSpec{Flows: 64, Packets: 300, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	got := make([][]tally, len(nfs))
	errs := make([]error, len(nfs))
	var wg sync.WaitGroup
	for i := range nfs {
		m := create(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ingestRecycled(m, batches)
		}(i)
	}
	wg.Wait()
	for i := range nfs {
		if errs[i] != nil {
			t.Fatalf("%s/%s: %v", nfs[i].name, nfs[i].flavor, errs[i])
		}
		want, err := ingestFresh(create(i), batches)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s/%s diverges from its serial twin:\n  concurrent %+v\n  serial     %+v",
				nfs[i].name, nfs[i].flavor, got[i], want)
		}
	}
}

// TestModuleRetainsNoBatch is the short heap-flatness check: once a
// batch has been answered, nothing the module owns — not its VMs'
// context regions, not its guard, not the pool after the two
// collections that empty it — still references the 256 KB of packets.
func TestModuleRetainsNoBatch(t *testing.T) {
	liveHeap := func() uint64 {
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	nfs := []struct{ name, flavor string }{
		{"cmsketch", "ebpf"}, {"cmsketch", "enetstl"}, {"bloom", "ebpf"}, {"vbf", "enetstl"},
		{"cuckooswitch", "ebpf"}, {"tss", "enetstl"}, {"conntrack", "ebpf"}, {"nitrosketch", "kernel"},
	}
	reg := NewRegistry()
	defer reg.Close()
	var mods []*Module
	for _, n := range nfs {
		m, err := reg.Create(CreateRequest{
			Name: n.name, Flavor: n.flavor,
			Options: runtime.Options{Guard: &runtime.GuardOptions{Enabled: true}},
			Trace:   runtime.TraceSpec{Flows: 64, Packets: 300, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	// The flows table and everything else a module is built with are in
	// the baseline; what is measured is what ingesting leaves behind.
	before := liveHeap()
	batch := runtime.TraceSpec{Flows: 64, Packets: 4096, Zipf: 1.1, Seed: 9}
	for _, m := range mods {
		if _, err := m.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	const perModule = 32 << 10
	if grew := int64(after) - int64(before); grew > int64(len(mods))*perModule {
		t.Fatalf("heap grew %d bytes over %d modules' first batch (%d each), want under %d each: a batch is %d bytes of packets",
			grew, len(mods), grew/int64(len(mods)), perModule, 4096*len(pktgen.Packet{}))
	}
	goruntime.KeepAlive(mods)
}
