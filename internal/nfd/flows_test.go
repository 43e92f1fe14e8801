package nfd

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/runtime"
)

// tableOf reports the backing array of m's flow table.
func tableOf(m *Module) *[nf.KeyLen]byte {
	if len(m.flows) == 0 {
		return nil
	}
	return &m.flows[0]
}

// refsOf reports how many live modules hold k's shared table, 0 when
// the registry holds none.
func refsOf(r *Registry, k runtime.FlowTableKey) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if t, ok := r.tables[k]; ok {
		return t.refs
	}
	return 0
}

func tableCount(r *Registry) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tables)
}

// estimateAnswer is the part of an estimates response that does not
// name the module.
type estimateAnswer struct {
	Key      string `json:"key"`
	Estimate uint32 `json:"estimate"`
}

// estimateAnswers ingests batch into module id of s and returns its
// estimates?flow=i answers for flows 0..n-1.
func estimateAnswers(t *testing.T, s *Server, id string, batch runtime.TraceSpec, n int) []estimateAnswer {
	t.Helper()
	m, _ := s.Registry.Get(id)
	if _, err := m.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	out := make([]estimateAnswer, n)
	for i := range out {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/modules/%s/estimates?flow=%d", id, i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s flow %d: status %d: %s", id, i, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSharedFlowTable: modules created from one benign seed spec hold
// one flow table, and each answers estimates?flow=i exactly as a module
// of its kind built alone.
func TestSharedFlowTable(t *testing.T) {
	seed := runtime.TraceSpec{Flows: 512, Seed: 7}
	batch := runtime.TraceSpec{Flows: 512, Packets: 2048, Zipf: 1.1, Seed: 7}
	kinds := []CreateRequest{
		{Name: "cmsketch", Flavor: "enetstl", Trace: seed},
		{Name: "vbf", Flavor: "kernel", Trace: seed},
		{Name: "heavykeeper", Flavor: "ebpf", Options: runtime.Options{Shards: 2}, Trace: seed},
	}
	s := NewServer()
	defer s.Registry.Close()
	var mods []*Module
	for _, req := range kinds {
		m, err := s.Registry.Create(req)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	for _, m := range mods[1:] {
		if tableOf(m) != tableOf(mods[0]) {
			t.Fatalf("%s and %s were seeded from one spec but hold different flow tables", mods[0].ID, m.ID)
		}
	}
	if n, refs := tableCount(s.Registry), refsOf(s.Registry, runtime.FlowTableKey{Flows: 512, Seed: 7}); n != 1 || refs != len(mods) {
		t.Fatalf("registry holds %d tables, the spec's with %d references; want 1 with %d", n, refs, len(mods))
	}
	for i, req := range kinds {
		alone := NewServer()
		m, err := alone.Registry.Create(req)
		if err != nil {
			t.Fatal(err)
		}
		got := estimateAnswers(t, s, mods[i].ID, batch, 16)
		want := estimateAnswers(t, alone, m.ID, batch, 16)
		alone.Registry.Close()
		for f := range want {
			if got[f] != want[f] {
				t.Errorf("%s flow %d: shared-table module answers %+v, a module built alone %+v", req.Name, f, got[f], want[f])
			}
		}
	}
}

// TestFlowTablePerSpec: a different flows or seed gets a table of its
// own; a spec that normalises to the same flows and seed shares one
// whatever its packets and zipf; scenario and raw specs each build
// their own and leave none in the registry.
func TestFlowTablePerSpec(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	create := func(spec runtime.TraceSpec) *Module {
		t.Helper()
		m, err := reg.Create(CreateRequest{Name: "bloom", Flavor: "kernel", Trace: spec})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := create(runtime.TraceSpec{Flows: 256, Seed: 5})
	for _, spec := range []runtime.TraceSpec{
		{Flows: 128, Seed: 5},
		{Flows: 256, Seed: 6},
	} {
		if m := create(spec); tableOf(m) == tableOf(base) || m.seedKey == nil {
			t.Errorf("spec %+v shares the table of {Flows:256 Seed:5}, or has no key", spec)
		}
	}
	if n := tableCount(reg); n != 3 {
		t.Fatalf("registry holds %d tables after three distinct benign specs, want 3", n)
	}
	def := create(runtime.TraceSpec{})
	if m := create(runtime.TraceSpec{Flows: 256, Seed: 1, Packets: 99, Zipf: 1.3}); tableOf(m) != tableOf(def) {
		t.Error("the default spec and {Flows:256 Seed:1} normalise alike but hold different tables")
	}
	raw := []string{base64.StdEncoding.EncodeToString(make([]byte, nf.PktSize))}
	for _, spec := range []runtime.TraceSpec{
		{Flows: 256, Seed: 5, Packets: 300, Scenario: "churn"},
		{Raw: raw},
	} {
		if m := create(spec); m.seedKey != nil || (tableOf(m) != nil && tableOf(m) == tableOf(base)) {
			t.Errorf("spec %+v took a shared table", spec)
		}
	}
	if n := tableCount(reg); n != 4 {
		t.Fatalf("registry holds %d tables, want 4 (scenario and raw specs register none)", n)
	}
}

// TestSharedFlowTableReleased: the registry gives a table up with the
// last module holding it, and holds none once every module is gone.
func TestSharedFlowTableReleased(t *testing.T) {
	reg := NewRegistry()
	k := runtime.FlowTableKey{Flows: 64, Seed: 3}
	var ids []string
	for _, name := range []string{"cmsketch", "bloom", "cuckoofilter"} {
		m, err := reg.Create(CreateRequest{Name: name, Flavor: "kernel", Trace: runtime.TraceSpec{Flows: 64, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	for i, id := range ids {
		if err := reg.Delete(id); err != nil {
			t.Fatal(err)
		}
		if got, want := refsOf(reg, k), len(ids)-i-1; got != want {
			t.Fatalf("after %d deletes: %d references, want %d", i+1, got, want)
		}
	}
	if n := tableCount(reg); n != 0 {
		t.Fatalf("registry holds %d tables with no module left", n)
	}
	if _, err := reg.Create(CreateRequest{Name: "bloom", Flavor: "kernel", Trace: runtime.TraceSpec{Flows: 64, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if n := tableCount(reg); n != 0 {
		t.Fatalf("registry holds %d tables after Close", n)
	}
}

// TestRefusedCreateLeavesNoReference: a create refused by a ceiling,
// an unknown NF, a bad option or a quota takes no reference, or gives
// back the one it took.
func TestRefusedCreateLeavesNoReference(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	held := runtime.TraceSpec{Flows: 128, Seed: 9}
	k := runtime.FlowTableKey{Flows: 128, Seed: 9}
	if _, err := reg.Create(CreateRequest{Name: "cmsketch", Flavor: "enetstl", Trace: held}); err != nil {
		t.Fatal(err)
	}
	fresh := runtime.TraceSpec{Flows: 96, Seed: 9}
	quota := runtime.Options{Quota: &runtime.Quota{MapBytes: 64}}
	for _, tc := range []struct {
		what string
		req  CreateRequest
	}{
		{"flows ceiling", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Trace: runtime.TraceSpec{Flows: runtime.MaxTraceFlows + 1, Seed: 9}}},
		{"packets ceiling", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Trace: runtime.TraceSpec{Flows: 128, Seed: 9, Packets: runtime.MaxTracePackets + 1}}},
		{"unknown NF", CreateRequest{Name: "nosuchnf", Flavor: "kernel", Trace: held}},
		{"bad tier", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Options: runtime.Options{Tier: "nosuchtier"}, Trace: held}},
		{"quota, held spec", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Options: quota, Trace: held}},
		{"quota, fresh spec", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Options: quota, Trace: fresh}},
		{"quota, sharded", CreateRequest{Name: "cmsketch", Flavor: "enetstl", Options: runtime.Options{Shards: 2, Quota: quota.Quota}, Trace: fresh}},
	} {
		_, err := reg.Create(tc.req)
		if err == nil {
			t.Fatalf("%s: create succeeded", tc.what)
		}
		if tc.req.Options.Quota != nil && !errors.Is(err, runtime.ErrQuota) {
			t.Fatalf("%s: %v, want a quota refusal", tc.what, err)
		}
		if n, refs := tableCount(reg), refsOf(reg, k); n != 1 || refs != 1 {
			t.Fatalf("%s: registry holds %d tables, the held one with %d references; want 1 with 1", tc.what, n, refs)
		}
	}
}

// TestConcurrentCreateOneSpec: creates of one new spec racing each other
// (meaningful under -race) all succeed, share one table and leave one in
// the registry; racing deletes then leave none.
func TestConcurrentCreateOneSpec(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	names := []string{"cmsketch", "bloom", "vbf", "cuckoofilter", "cuckooswitch", "daryhash", "tss", "heavykeeper"}
	spec := runtime.TraceSpec{Flows: 300, Seed: 11}
	mods := make([]*Module, 2*len(names))
	errs := make([]error, len(mods))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			mods[i], errs[i] = reg.Create(CreateRequest{Name: names[i%len(names)], Flavor: "kernel", Trace: spec})
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if tableOf(mods[i]) != tableOf(mods[0]) {
			t.Fatalf("create %d holds a table of its own", i)
		}
	}
	if n, refs := tableCount(reg), refsOf(reg, runtime.FlowTableKey{Flows: 300, Seed: 11}); n != 1 || refs != len(mods) {
		t.Fatalf("registry holds %d tables, the spec's with %d references; want 1 with %d", n, refs, len(mods))
	}
	for _, m := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reg.Delete(m.ID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := tableCount(reg); n != 0 {
		t.Fatalf("registry holds %d tables after every module was deleted", n)
	}
}
