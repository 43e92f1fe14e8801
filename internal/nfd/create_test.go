package nfd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// seedBuilt is a module built the way Create built one before it kept
// only the flow table: the seed spec materialised as a whole trace
// (packets and all) and handed to the catalog.
type seedBuilt struct {
	insts []nf.Instance
	flows [][nf.KeyLen]byte
	est   func(key []byte) (uint32, bool)
}

func buildFromSeedTrace(name string, fl nf.Flavor, o runtime.Options, seed runtime.TraceSpec) (seedBuilt, error) {
	tr, err := seed.Build()
	if err != nil {
		return seedBuilt{}, err
	}
	out := seedBuilt{flows: tr.FlowKeys}
	if o.Shards <= 1 && !o.PerCPU {
		b, err := nfcatalog.BuildFull(name, fl, tr)
		if err != nil {
			return seedBuilt{}, err
		}
		out.insts = []nf.Instance{b.Inst}
		out.est = func(key []byte) (uint32, bool) {
			if b.Est == nil {
				return 0, false
			}
			return b.Est(key), true
		}
		return out, nil
	}
	built, sh, err := nfcatalog.Open(runtime.Options{Shards: o.Shards, PerCPU: o.PerCPU}, name, fl, tr)
	if err != nil {
		return seedBuilt{}, err
	}
	for _, b := range built {
		out.insts = append(out.insts, b.Inst)
	}
	out.est = sh.Estimate
	return out, nil
}

// replay is Module.Ingest for a seedBuilt: one prepared batch,
// hash-partitioned across the shards by the shard runner, tallies
// summed.
func (s seedBuilt) replay(name string, spec runtime.TraceSpec) (harness.VerdictCounts, error) {
	tr, err := spec.Build()
	if err != nil {
		return harness.VerdictCounts{}, err
	}
	nfcatalog.PrepareTrace(name, tr)
	res, err := harness.ReplayShards(s.insts, tr.Shard(len(s.insts)), make([]uint64, len(s.insts)), 1, false)
	var sum harness.VerdictCounts
	for _, r := range res {
		sum.Add(r.Verdicts)
	}
	return sum, err
}

// TestCreateMatchesSeedTraceBuild is the differential check on Create's
// flow-table build: for every catalog NF × supported flavour, plus
// sharded and per-CPU cells, a module created through the registry
// holds the same flow table as the old path's seed trace, answers one
// 1024-packet batch with the same verdict tally, and then estimates
// flows 0..7 identically.
func TestCreateMatchesSeedTraceBuild(t *testing.T) {
	type cell struct {
		name string
		fl   nf.Flavor
		o    runtime.Options
	}
	var cells []cell
	for _, name := range nfcatalog.Names() {
		for _, fl := range difftest.SupportedFlavors(name) {
			cells = append(cells, cell{name, fl, runtime.Options{}})
		}
	}
	cells = append(cells,
		cell{"cmsketch", nf.ENetSTL, runtime.Options{Shards: 4}},
		cell{"conntrack", nf.EBPF, runtime.Options{Shards: 4}},
		cell{"conntrack", nf.Kernel, runtime.Options{Shards: 4, PerCPU: true}},
	)
	seeds := []runtime.TraceSpec{
		{Flows: 1024, Seed: 1001},
		{Flows: 64, Packets: 500, Zipf: 1.1, Seed: 3, Scenario: "churn"},
	}
	batch := runtime.TraceSpec{Flows: 1024, Packets: 1024, Zipf: 1.1, Seed: 1001}
	for _, c := range cells {
		for si, seed := range seeds {
			t.Run(fmt.Sprintf("%s/%s/shards=%d/percpu=%v/seed%d", c.name, c.fl, c.o.Shards, c.o.PerCPU, si), func(t *testing.T) {
				reg := NewRegistry()
				defer reg.Close()
				m, err := reg.Create(CreateRequest{Name: c.name, Flavor: c.fl.String(), Options: c.o, Trace: seed})
				if err != nil {
					t.Fatal(err)
				}
				old, err := buildFromSeedTrace(c.name, c.fl, c.o, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.flows) != len(old.flows) {
					t.Fatalf("flow table of %d keys, the seed trace has %d", len(m.flows), len(old.flows))
				}
				for i := range old.flows {
					if m.flows[i] != old.flows[i] {
						t.Fatalf("flow %d: key %x, the seed trace has %x", i, m.flows[i], old.flows[i])
					}
				}
				res, err := m.Ingest(batch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := old.replay(c.name, batch)
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdicts != want {
					t.Errorf("verdicts %+v, the seed-trace build answers %+v", res.Verdicts, want)
				}
				for f := 0; f < 8; f++ {
					key, _ := m.FlowKey(f)
					got, gok := m.Estimate(key)
					exp, eok := old.est(old.flows[f][:])
					if got != exp || gok != eok {
						t.Errorf("flow %d: estimate %d (%v), the seed-trace build answers %d (%v)", f, got, gok, exp, eok)
					}
				}
			})
		}
	}
}

// TestPerCPUOneShard: the per-CPU rule is nfcatalog.Open's, so it holds
// at one shard and the daemon's create and nfrun's build (which opens
// its shards through Open with the same options) agree: {conntrack,
// percpu} gets a per-CPU flow table of one copy through both and
// answers a batch alike; {bloom, percpu} — no per-CPU wiring — is
// refused by both, and the daemon answers the refused create with a
// 400.
func TestPerCPUOneShard(t *testing.T) {
	o := runtime.Options{Shards: 1, PerCPU: true}
	seed := runtime.TraceSpec{Flows: 64, Seed: 2}
	batch := runtime.TraceSpec{Flows: 64, Packets: 1000, Zipf: 1.1, Seed: 2}
	for _, c := range []struct {
		name    string
		refused bool
	}{{"conntrack", false}, {"bloom", true}} {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer()
			defer s.Registry.Close()
			req := CreateRequest{Name: c.name, Flavor: "ebpf", Options: o, Trace: seed}
			m, createErr := s.Registry.Create(req)
			tr, err := batch.Build()
			if err != nil {
				t.Fatal(err)
			}
			built, sh, openErr := nfcatalog.Open(o, c.name, nf.EBPF, tr)
			if (createErr != nil) != c.refused || (openErr != nil) != c.refused {
				t.Fatalf("create: %v; nfrun's build: %v; want refused=%v from both", createErr, openErr, c.refused)
			}
			if c.refused {
				body, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/modules", bytes.NewReader(body)))
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("POST /modules: status %d, want 400: %s", rec.Code, rec.Body)
				}
				return
			}
			for what, wiring := range map[string]*nfcatalog.Sharded{"create": m.sharded, "nfrun's build": sh} {
				if p := wiring.PerCPUTable(); p == nil || p.NumCPU() != 1 {
					t.Fatalf("%s: per-CPU table %v, want one copy", what, p)
				}
			}
			got, err := m.Ingest(batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := harness.ReplayShards([]nf.Instance{built[0].Inst}, []*pktgen.Trace{tr}, make([]uint64, 1), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.Verdicts != want[0].Verdicts {
				t.Fatalf("create answers %+v, nfrun's build %+v", got.Verdicts, want[0].Verdicts)
			}
		})
	}
}

// createShape is one benchmark workload's POST /modules bodies.
type createShape struct {
	name string
	reqs []CreateRequest
}

// fig3NFs are the 13 NFs of the paper's Fig. 3: the catalog without
// skiplist (no eBPF flavour) and conntrack (maps and helpers only).
func fig3NFs() []string {
	var out []string
	for _, n := range nfcatalog.Names() {
		if n != "skiplist" && n != "conntrack" {
			out = append(out, n)
		}
	}
	return out
}

// createShapes mirrors the create bodies of the benchmark's four
// workloads at seed 1: the Fig. 3 modules preloaded with 4096 flows,
// guarded conntrack with 64, and tenant_churn's traced tenants with
// 1024.
func createShapes() []createShape {
	const seed = 1001
	fig3 := func(flavor string) []CreateRequest {
		var out []CreateRequest
		for _, n := range fig3NFs() {
			out = append(out, CreateRequest{Name: n, Flavor: flavor, Trace: runtime.TraceSpec{Flows: 4096, Seed: seed}})
		}
		return out
	}
	guarded := runtime.Options{Guard: &runtime.GuardOptions{Enabled: true}}
	traced := runtime.Options{Trace: &runtime.TraceOptions{Capacity: 4096, SampleRate: 0.05}}
	var churn []CreateRequest
	for _, n := range append(fig3NFs(), "conntrack") {
		flavor := "enetstl"
		if n == "conntrack" {
			flavor = "ebpf"
		}
		churn = append(churn, CreateRequest{Name: n, Flavor: flavor, Options: traced, Trace: runtime.TraceSpec{Flows: 1024, Seed: seed}})
	}
	return []createShape{
		{"tenant_churn", churn},
		{"enetstl_fig3", fig3("enetstl")},
		{"ebpf_fig3", fig3("ebpf")},
		{"conntrack_attack", []CreateRequest{
			{Name: "conntrack", Flavor: "ebpf", Options: guarded, Trace: runtime.TraceSpec{Flows: 64, Seed: seed}},
			{Name: "conntrack", Flavor: "kernel", Options: guarded, Trace: runtime.TraceSpec{Flows: 64, Seed: seed}},
		}},
	}
}

// createDelete creates and deletes one module.
func createDelete(tb testing.TB, reg *Registry, req CreateRequest) {
	m, err := reg.Create(req)
	if err != nil {
		tb.Fatal(err)
	}
	if err := reg.Delete(m.ID); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCreate times Registry.Create (with the delete that follows
// it) on each benchmark workload's create bodies, cycling through the
// workload's modules; an op is one create.
func BenchmarkCreate(b *testing.B) {
	for _, sh := range createShapes() {
		b.Run(sh.name, func(b *testing.B) {
			reg := NewRegistry()
			defer reg.Close()
			for _, req := range sh.reqs {
				createDelete(b, reg, req) // warm the catalog's lazy state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				createDelete(b, reg, sh.reqs[i%len(sh.reqs)])
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/create")
		})
	}
}

// TestCreateAllocations holds a tenant_churn create to what the module
// keeps: its instances, its flow table and an empty flight-recorder
// ring (≈ 180 KB). Generating the seed spec's 2000 packets and zeroing
// the ring's 4096 slots would add ≈ 650 KB.
func TestCreateAllocations(t *testing.T) {
	const maxBytes = 256 << 10
	reqs := createShapes()[0].reqs
	reg := NewRegistry()
	defer reg.Close()
	for _, req := range reqs {
		createDelete(t, reg, req)
	}
	var before, after goruntime.MemStats
	const rounds = 4
	goruntime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		for _, req := range reqs {
			createDelete(t, reg, req)
		}
	}
	goruntime.ReadMemStats(&after)
	creates := uint64(rounds * len(reqs))
	if per := (after.TotalAlloc - before.TotalAlloc) / creates; per > maxBytes {
		t.Fatalf("a tenant_churn create allocates %d bytes on average over %d creates, want <= %d", per, creates, maxBytes)
	}
}
