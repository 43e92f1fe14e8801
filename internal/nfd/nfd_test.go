package nfd_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/runtime"
)

func newTestServer(t *testing.T) (*nfd.Server, *httptest.Server) {
	t.Helper()
	srv := nfd.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Registry.Close()
		ts.Close()
	})
	return srv, ts
}

// do issues one request and decodes the JSON response into out (when
// non-nil), returning the status code and raw body.
func do(t *testing.T, method, url, body string, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, data
}

// TestLifecycleAllCatalog drives the full HTTP lifecycle — create, get,
// push a batch, delete, 404 — for every catalog NF in every flavour it
// supports.
func TestLifecycleAllCatalog(t *testing.T) {
	_, ts := newTestServer(t)
	for _, name := range nfcatalog.Names() {
		for _, flavor := range difftest.SupportedFlavors(name) {
			flavorS := map[nf.Flavor]string{
				nf.Kernel: "kernel", nf.EBPF: "ebpf", nf.ENetSTL: "enetstl",
			}[flavor]
			t.Run(name+"/"+flavorS, func(t *testing.T) {
				body := fmt.Sprintf(
					`{"name": %q, "flavor": %q, "trace": {"flows": 64, "packets": 300, "seed": 3}}`,
					name, flavorS)
				var st nfd.Status
				if code, data := do(t, "POST", ts.URL+"/modules", body, &st); code != http.StatusCreated {
					t.Fatalf("create: status %d: %s", code, data)
				}
				if st.State != "attached" || st.Shards != 1 {
					t.Fatalf("created %+v, want attached/1 shard", st)
				}

				var res harness.BatchResult
				code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
					`{"flows": 64, "packets": 300, "seed": 3}`, &res)
				if code != http.StatusOK {
					t.Fatalf("ingest: status %d: %s", code, data)
				}
				if res.Packets != 300 {
					t.Fatalf("ingest replayed %d packets, want 300", res.Packets)
				}

				var got nfd.Status
				if code, _ := do(t, "GET", ts.URL+"/modules/"+st.ID, "", &got); code != http.StatusOK {
					t.Fatalf("get: status %d", code)
				}
				if got.State != "running" || got.Packets != 300 {
					t.Fatalf("after batch: %+v, want running/300", got)
				}

				if code, data := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
					t.Fatalf("delete: status %d: %s", code, data)
				}
				if code, _ := do(t, "GET", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusNotFound {
					t.Fatalf("deleted module still answers: status %d", code)
				}
			})
		}
	}
}

func TestCreateRejections(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ name, body string }{
		{"unknown nf", `{"name": "nosuch", "flavor": "kernel"}`},
		{"unsupported flavor", `{"name": "skiplist", "flavor": "ebpf"}`},
		{"bad flavor", `{"name": "bloom", "flavor": "turbo"}`},
		{"bad options", `{"name": "bloom", "flavor": "kernel", "options": {"tier": "turbo"}}`},
		// "fast" was an undocumented alias of "predecoded"; a module's
		// options name its tier one way only.
		{"tier alias", `{"name": "bloom", "flavor": "ebpf", "options": {"tier": "fast"}}`},
		{"unknown field", `{"name": "bloom", "flavor": "kernel", "nope": 1}`},
		{"negative quota", `{"name": "bloom", "flavor": "kernel", "options": {"quota": {"rpool_cap": -1}}}`},
	}
	for _, c := range cases {
		if code, _ := do(t, "POST", ts.URL+"/modules", c.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
	// map_impl left the options schema with the selectable flat core. A
	// client still sending it gets a 400 that names the field, not a
	// module silently built on the only core there is.
	code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "conntrack", "flavor": "ebpf", "options": {"map_impl": "flat"}}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(data), "map_impl") {
		t.Errorf("removed option map_impl: status %d body %s, want 400 naming the field", code, data)
	}
	// Batches bounce off missing modules.
	if code, _ := do(t, "POST", ts.URL+"/modules/ghost-1/packets", `{"packets": 10}`, nil); code != http.StatusNotFound {
		t.Errorf("ingest into missing module: status %d, want 404", code)
	}
}

// TestStrictBodies pins that a request body is one JSON value: trailing
// bytes or a second value make the whole request a 400 bad_spec that
// creates no module and ingests no packet, on both JSON endpoints, while
// trailing whitespace (a curl body's newline) is still accepted.
func TestStrictBodies(t *testing.T) {
	srv, ts := newTestServer(t)
	const create = `{"name": "cmsketch", "flavor": "kernel"}`
	for _, c := range []struct{ name, body string }{
		{"trailing garbage", create + ` trailing`},
		{"two objects", create + ` {"name": "x"}`},
		{"second object, no space", create + `{"name": "bloom", "flavor": "kernel"}`},
	} {
		var e struct{ Reason string }
		if code, data := do(t, "POST", ts.URL+"/modules", c.body, &e); code != http.StatusBadRequest || e.Reason != "bad_spec" {
			t.Errorf("create with %s: status %d body %s, want 400 bad_spec", c.name, code, data)
		}
	}
	if mods := srv.Registry.List(); len(mods) != 0 {
		t.Fatalf("refused creates left modules behind: %+v", mods)
	}
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules", create+"\n", &st); code != http.StatusCreated {
		t.Fatalf("create with a trailing newline: status %d body %s, want 201", code, data)
	}
	url := ts.URL + "/modules/" + st.ID + "/packets"
	const batch = `{"flows": 16, "packets": 64, "seed": 3}`
	for _, c := range []struct{ name, body string }{
		{"trailing garbage", batch + ` trailing`},
		{"two objects", batch + ` {"packets": 10}`},
	} {
		var e struct{ Reason string }
		if code, data := do(t, "POST", url, c.body, &e); code != http.StatusBadRequest || e.Reason != "bad_spec" {
			t.Errorf("batch with %s: status %d body %s, want 400 bad_spec", c.name, code, data)
		}
	}
	if m, _ := srv.Registry.Get(st.ID); m.Status().Packets != 0 {
		t.Fatalf("refused batches moved the packet counter to %d", m.Status().Packets)
	}
	if code, data := do(t, "POST", url, batch+"\n", nil); code != http.StatusOK {
		t.Fatalf("batch with a trailing newline: status %d body %s, want 200", code, data)
	}
}

// TestConcurrentCreateDelete exercises the registry's lifecycle paths
// from racing handlers: creates, batches, lists, scrapes, and deletes
// all interleave. Run under -race this pins the locking design.
func TestConcurrentCreateDelete(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"cmsketch", "bloom", "conntrack", "heavykeeper"}
			name := names[w%len(names)]
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf(
					`{"name": %q, "flavor": "kernel", "options": {"stats": true}, "trace": {"flows": 32, "packets": 100, "seed": 5}}`,
					name)
				var st nfd.Status
				if code, data := do(t, "POST", ts.URL+"/modules", body, &st); code != http.StatusCreated {
					t.Errorf("worker %d: create status %d: %s", w, code, data)
					return
				}
				do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets", `{"flows": 32, "packets": 200, "seed": 5}`, nil)
				do(t, "GET", ts.URL+"/modules", "", nil)
				do(t, "GET", ts.URL+"/metrics", "", nil)
				if code, _ := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
					t.Errorf("worker %d: delete status %d", w, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var list struct {
		Modules []nfd.Status `json:"modules"`
	}
	do(t, "GET", ts.URL+"/modules", "", &list)
	if len(list.Modules) != 0 {
		t.Fatalf("%d modules survived the churn", len(list.Modules))
	}
}

// TestQuotaEnforcement pins the 429 semantics: a quota-limited module
// sheds (429 with partial results) while an unlimited sibling on the
// same daemon replays the same stream untouched, and the shed counters
// are visible at /metrics. Quotas measured on the built module (map
// memory, rpool capacity) 429 at create.
func TestQuotaEnforcement(t *testing.T) {
	_, ts := newTestServer(t)

	// Tenant A: one instruction per arrival tick — sheds almost
	// everything. Tenant B: no quota.
	var limited, unlimited nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "options": {"quota": {"insn_budget": 1}},
		  "trace": {"flows": 64, "packets": 500, "seed": 7}}`, &limited); code != http.StatusCreated {
		t.Fatalf("create limited: status %d: %s", code, data)
	}
	if !limited.Guarded {
		t.Fatal("insn-budget quota did not arm the guard")
	}
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "trace": {"flows": 64, "packets": 500, "seed": 7}}`, &unlimited); code != http.StatusCreated {
		t.Fatalf("create unlimited: status %d: %s", code, data)
	}

	batch := `{"flows": 64, "packets": 2000, "seed": 7}`
	var shedRes harness.BatchResult
	code, data := do(t, "POST", ts.URL+"/modules/"+limited.ID+"/packets", batch, &shedRes)
	if code != http.StatusTooManyRequests {
		t.Fatalf("limited ingest: status %d (shed %d): %s", code, shedRes.Shed, data)
	}
	if shedRes.Shed == 0 || shedRes.Packets != 2000 {
		t.Fatalf("limited ingest: %+v, want sheds over 2000 packets", shedRes)
	}

	var okRes harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+unlimited.ID+"/packets", batch, &okRes); code != http.StatusOK {
		t.Fatalf("unlimited ingest: status %d: %s", code, data)
	}
	if okRes.Shed != 0 {
		t.Fatalf("unlimited sibling shed %d packets", okRes.Shed)
	}

	_, metrics := do(t, "GET", ts.URL+"/metrics", "", nil)
	if !strings.Contains(string(metrics), "nf_guard_shed_total") {
		t.Fatal("/metrics missing nf_guard_shed_total for the limited module")
	}

	// A map-memory ceiling no flow table fits under fails the create
	// with 429, not 400.
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "conntrack", "flavor": "kernel",
		  "options": {"quota": {"map_bytes": 64}}}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("map-bytes breach: status %d, want 429: %s", code, data)
	}
}

// TestGoldenJSONEqualsOptions pins the API-redesign invariant: a module
// built from a JSON request body and an instance built directly from
// the equivalent runtime.Options produce identical verdict tallies and
// identical estimator state over the same seeded stream.
func TestGoldenJSONEqualsOptions(t *testing.T) {
	_, ts := newTestServer(t)

	const nfName = "cmsketch"
	seedSpec := runtime.TraceSpec{Flows: 64, Packets: 800, Seed: 11}
	batchSpec := runtime.TraceSpec{Flows: 64, Packets: 2000, Zipf: 1.1, Seed: 11}
	opts := runtime.Options{Tier: "jit"}

	// HTTP path: JSON-built module, one batch.
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "options": {"tier": "jit"},
		  "trace": {"flows": 64, "packets": 800, "seed": 11}}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	var httpRes harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
		`{"flows": 64, "packets": 2000, "zipf": 1.1, "seed": 11}`, &httpRes); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, data)
	}

	// Direct path: Options-built instance, same seed trace, same batch.
	seedTr, err := seedSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := nfcatalog.BuildWith(opts, nfName, nf.ENetSTL, seedTr)
	if err != nil {
		t.Fatal(err)
	}
	batchTr, err := batchSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	nfcatalog.PrepareTrace(nfName, batchTr)
	directRes, _, err := harness.ReplayBatch(b.Inst, batchTr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if directRes.Packets != httpRes.Packets {
		t.Fatalf("packet counts diverge: http %d, direct %d", httpRes.Packets, directRes.Packets)
	}
	for verdict, n := range directRes.VerdictMap {
		if httpRes.VerdictMap[verdict] != n {
			t.Fatalf("verdict %q diverges: http %d, direct %d (http %v, direct %v)",
				verdict, httpRes.VerdictMap[verdict], n, httpRes.VerdictMap, directRes.VerdictMap)
		}
	}

	// Estimator state: both instances saw the same stream through the
	// same tier, so per-flow estimates must match exactly.
	for i := 0; i < 8; i++ {
		var est struct {
			Estimate uint32 `json:"estimate"`
		}
		url := fmt.Sprintf("%s/modules/%s/estimates?flow=%d", ts.URL, st.ID, i)
		if code, data := do(t, "GET", url, "", &est); code != http.StatusOK {
			t.Fatalf("estimate flow %d: status %d: %s", i, code, data)
		}
		want := b.Est(seedTr.FlowKeys[i][:])
		if est.Estimate != want {
			t.Fatalf("flow %d estimate diverges: http %d, direct %d", i, est.Estimate, want)
		}
	}
}

// TestShardedModule exercises the multi-shard build and ingest path
// over HTTP, including the per-CPU backing.
func TestShardedModule(t *testing.T) {
	_, ts := newTestServer(t)
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "conntrack", "flavor": "kernel",
		  "options": {"shards": 4, "percpu": true, "stats": true},
		  "trace": {"flows": 128, "packets": 1000, "seed": 9}}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	if st.Shards != 4 {
		t.Fatalf("built %d shards, want 4", st.Shards)
	}
	var res harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
		`{"flows": 128, "packets": 1000, "seed": 9}`, &res); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, data)
	}
	if res.Packets != 1000 {
		t.Fatalf("sharded ingest replayed %d packets, want 1000", res.Packets)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
		t.Fatalf("delete failed")
	}
}

// TestRPoolQuotaAnswers429 is the regression test for the quota panic:
// a module whose NF draws a random pool larger than quota.rpool_cap
// used to panic inside the NF constructor, so the client saw a reset
// connection. Every pool-drawing NF in every flavour must now get an
// HTTP answer — 429 where a pool is drawn, 201 where none is (the eBPF
// flavours) — and a refused module must not linger in the registry.
func TestRPoolQuotaAnswers429(t *testing.T) {
	_, ts := newTestServer(t)
	for _, name := range []string{"heavykeeper", "nitrosketch"} {
		for _, flavor := range []string{"kernel", "ebpf", "enetstl"} {
			body := fmt.Sprintf(
				`{"name": %q, "flavor": %q, "options": {"quota": {"rpool_cap": 8}}}`, name, flavor)
			// do fails the test on a transport error, which is what a
			// panicking handler produces.
			code, data := do(t, "POST", ts.URL+"/modules", body, nil)
			want := http.StatusTooManyRequests
			if flavor == "ebpf" {
				want = http.StatusCreated
			}
			if code != want {
				t.Errorf("%s/%s under rpool_cap 8: status %d, want %d: %s", name, flavor, code, want, data)
			}
			// The same module fits a ceiling at its pool size.
			body = fmt.Sprintf(
				`{"name": %q, "flavor": %q, "options": {"quota": {"rpool_cap": 4096}}}`, name, flavor)
			if code, data := do(t, "POST", ts.URL+"/modules", body, nil); code != http.StatusCreated {
				t.Errorf("%s/%s under rpool_cap 4096: status %d, want 201: %s", name, flavor, code, data)
			}
		}
	}
	var list struct {
		Modules []nfd.Status `json:"modules"`
	}
	do(t, "GET", ts.URL+"/modules", "", &list)
	// 2 eBPF modules under the tight cap + 6 under the fitting one.
	if len(list.Modules) != 8 {
		t.Fatalf("%d modules registered, want 8 (refused creates must leave nothing behind)", len(list.Modules))
	}
}

// errorsTotal reads nfd_http_errors_total{code,reason} off /metrics.
func errorsTotal(t *testing.T, base string, code int, reason string) int {
	t.Helper()
	return int(sumSeries(t, scrape(t, base), "nfd_http_errors_total",
		fmt.Sprintf(`code="%d"`, code), fmt.Sprintf(`reason=%q`, reason)))
}

// TestErrorReasons: every refusal names its reason in the body and
// moves nfd_http_errors_total{code,reason} by exactly one; a batch the
// client described wrongly is the client's 400, never the module's 409.
func TestErrorReasons(t *testing.T) {
	_, ts := newTestServer(t)
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "ebpf", "trace": {"flows": 16, "packets": 16}}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	packets := "/modules/" + st.ID + "/packets"
	pkt := func(n int) string { return base64.StdEncoding.EncodeToString(make([]byte, n)) }
	for _, tc := range []struct {
		name, method, path, body string
		code                     int
		reason                   string
	}{
		{"unknown scenario", "POST", packets, `{"flows": 16, "packets": 50, "scenario": "nosuch"}`, 400, "bad_spec"},
		{"short raw packet", "POST", packets, `{"raw": ["` + pkt(64) + `", "` + pkt(63) + `"]}`, 400, "bad_spec"},
		{"bad base64", "POST", packets, `{"raw": ["!!!!"]}`, 400, "bad_spec"},
		{"unknown field", "POST", packets, `{"flows": 16, "nope": 1}`, 400, "bad_spec"},
		{"batch over a ceiling", "POST", packets, fmt.Sprintf(`{"packets": %d}`, runtime.MaxTracePackets+1), 400, "over_limit"},
		{"tier alias", "POST", "/modules", `{"name": "bloom", "flavor": "ebpf", "options": {"tier": "fast"}}`, 400, "bad_spec"},
		{"quota breach", "POST", "/modules", `{"name": "conntrack", "flavor": "kernel", "options": {"quota": {"map_bytes": 64}}}`, 429, "quota"},
		{"no such module", "POST", "/modules/ghost-1/packets", `{"packets": 10}`, 404, "not_found"},
		{"delete of no such module", "DELETE", "/modules/ghost-1", "", 404, "not_found"},
		{"estimate without a key", "GET", "/modules/" + st.ID + "/estimates", "", 400, "bad_spec"},
	} {
		before := errorsTotal(t, ts.URL, tc.code, tc.reason)
		var got struct{ Error, Reason string }
		code, data := do(t, tc.method, ts.URL+tc.path, tc.body, &got)
		if code != tc.code || got.Reason != tc.reason || got.Error == "" {
			t.Errorf("%s: status %d body %s, want %d with reason %q", tc.name, code, data, tc.code, tc.reason)
		}
		if after := errorsTotal(t, ts.URL, tc.code, tc.reason); after != before+1 {
			t.Errorf("%s: nfd_http_errors_total{code=%d,reason=%s} went %d -> %d, want +1",
				tc.name, tc.code, tc.reason, before, after)
		}
	}
	var after nfd.Status
	do(t, "GET", ts.URL+"/modules/"+st.ID, "", &after)
	if after.State != "attached" || after.Packets != 0 {
		t.Fatalf("refused batches left their mark: %+v", after)
	}
}

// TestBodyLimit: a request body over nfd.MaxBodyBytes is a 413 and the
// batch it carried is not replayed, not even in part.
func TestBodyLimit(t *testing.T) {
	srv, ts := newTestServer(t)
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "kernel"}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
		`{"flows": 16, "packets": 50}`, nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, data)
	}

	// Served straight through the handler: over a socket the server may
	// answer and close while the client is still writing 16 MiB, and
	// which of the two the client reports first is a race.
	oversized := `{"raw": ["` + strings.Repeat("A", nfd.MaxBodyBytes) + `"]}`
	for _, path := range []string{"/modules/" + st.ID + "/packets", "/modules"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(oversized)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413: %s",
				path, len(oversized), rec.Code, rec.Body)
		}
	}

	var after nfd.Status
	do(t, "GET", ts.URL+"/modules/"+st.ID, "", &after)
	if after.Batches != 1 || after.Packets != 50 {
		t.Fatalf("counters moved under a refused body: %d batches / %d packets, want 1 / 50",
			after.Batches, after.Packets)
	}
	// A body at the limit is still read to the end: it fails as JSON
	// (400), not as too large.
	atLimit := strings.Repeat(" ", nfd.MaxBodyBytes)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/modules", strings.NewReader(atLimit)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("body of exactly MaxBodyBytes: status %d, want 400", rec.Code)
	}
}

// TestRequestCeilings: the daemon caps what a body asks for, not only
// the body — a field over its runtime ceiling is a 400 naming the field,
// what it asked for and the most it may, on create and on ingest alike,
// and nothing is built or counted. A field exactly at its ceiling is
// not refused on that ground.
func TestRequestCeilings(t *testing.T) {
	_, ts := newTestServer(t)
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "kernel"}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	over := func(n int) string { return fmt.Sprint(n + 1) }
	for _, tc := range []struct {
		path, body, field string
		max               int
	}{
		{"/modules", `{"name": "bloom", "flavor": "kernel", "trace": {"flows": ` + over(runtime.MaxTraceFlows) + `}}`,
			"trace.flows", runtime.MaxTraceFlows},
		{"/modules", `{"name": "bloom", "flavor": "kernel", "trace": {"packets": ` + over(runtime.MaxTracePackets) + `}}`,
			"trace.packets", runtime.MaxTracePackets},
		{"/modules", `{"name": "bloom", "flavor": "kernel", "options": {"shards": ` + over(runtime.MaxShards) + `}}`,
			"options.shards", runtime.MaxShards},
		{"/modules", `{"name": "bloom", "flavor": "kernel", "options": {"trace": {"capacity": ` + over(runtime.MaxTraceCapacity) + `}}}`,
			"options.trace.capacity", runtime.MaxTraceCapacity},
		{"/modules/" + st.ID + "/packets", `{"flows": 16, "packets": ` + over(runtime.MaxTracePackets) + `}`,
			"trace.packets", runtime.MaxTracePackets},
		{"/modules/" + st.ID + "/packets", `{"flows": ` + over(runtime.MaxTraceFlows) + `, "packets": 10}`,
			"trace.flows", runtime.MaxTraceFlows},
	} {
		var got struct {
			Error, Reason, Field string
			Got, Max             int
		}
		code, data := do(t, "POST", ts.URL+tc.path, tc.body, &got)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400: %s", tc.path, tc.body, code, data)
			continue
		}
		if got.Reason != "over_limit" || got.Field != tc.field || got.Got != tc.max+1 || got.Max != tc.max || got.Error == "" {
			t.Errorf("POST %s %s: reason %+v, want over_limit on %s (%d > %d)", tc.path, tc.body, got, tc.field, tc.max+1, tc.max)
		}
	}
	var list struct{ Modules []nfd.Status }
	do(t, "GET", ts.URL+"/modules", "", &list)
	if len(list.Modules) != 1 || list.Modules[0].Packets != 0 {
		t.Fatalf("refused requests left their mark: %+v", list.Modules)
	}
	if code, data := do(t, "POST", ts.URL+"/modules",
		fmt.Sprintf(`{"name": "bloom", "flavor": "kernel", "options": {"shards": %d}, "trace": {"flows": 8, "packets": 8}}`,
			runtime.MaxShards), nil); code != http.StatusCreated {
		t.Fatalf("shards at the ceiling: status %d: %s", code, data)
	}
}

// TestProfileServesModuleStats: /profile reports what each
// stats-enabled module counted, labelled with the module's ID — one
// report per program, over the run count /modules/{id}/stats shows. A
// module without stats adds no report, and a deleted module's report
// is gone.
func TestProfileServesModuleStats(t *testing.T) {
	_, ts := newTestServer(t)
	ids := map[bool]string{}
	for _, stats := range []bool{true, false} {
		var st nfd.Status
		body := fmt.Sprintf(`{"name": "cmsketch", "flavor": "enetstl", "options": {"stats": %v}}`, stats)
		if code, data := do(t, "POST", ts.URL+"/modules", body, &st); code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", code, data)
		}
		if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets", `{"packets": 64}`, nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", code, data)
		}
		ids[stats] = st.ID
	}
	var stats struct {
		Programs []struct {
			Prog   string `json:"prog"`
			RunCnt uint64 `json:"run_cnt"`
		} `json:"programs"`
	}
	if code, data := do(t, "GET", ts.URL+"/modules/"+ids[true]+"/stats", "", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, data)
	}
	if len(stats.Programs) == 0 || stats.Programs[0].RunCnt != 64 {
		t.Fatalf("stats after a 64-packet batch: %+v", stats)
	}
	profile := func() []harness.ProfileReport {
		var reps []harness.ProfileReport
		if code, data := do(t, "GET", ts.URL+"/profile", "", &reps); code != http.StatusOK {
			t.Fatalf("profile: status %d: %s", code, data)
		}
		return reps
	}
	reps := profile()
	if len(reps) != len(stats.Programs) {
		t.Fatalf("/profile has %d reports, want one per program of %s: %+v", len(reps), ids[true], reps)
	}
	for i, rep := range reps {
		want := stats.Programs[i]
		if rep.Flavor != ids[true] || rep.Name != want.Prog || uint64(rep.Packets) != want.RunCnt {
			t.Errorf("report %d = %s/%s over %d runs, want %s/%s over %d",
				i, rep.Name, rep.Flavor, rep.Packets, want.Prog, ids[true], want.RunCnt)
		}
	}
	if code, data := do(t, "DELETE", ts.URL+"/modules/"+ids[true], "", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, data)
	}
	if reps := profile(); len(reps) != 0 {
		t.Fatalf("/profile after the stats module was deleted: %+v", reps)
	}
}
