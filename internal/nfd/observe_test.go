package nfd_test

// The daemon's observability surface: /metrics, /profile, pprof and the
// filtered reading of a module's flight recording.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"enetstl/internal/harness"
	"enetstl/internal/nfd"
	"enetstl/internal/trace"
)

// create posts a module and returns its status; it fails the test on
// anything but 201.
func create(t *testing.T, base, body string) nfd.Status {
	t.Helper()
	var st nfd.Status
	if code, data := do(t, "POST", base+"/modules", body, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	return st
}

// ingest pushes one batch and returns the decoded response; 200 and
// 429 (a batch the guard shed part of) are both answers.
func ingest(t *testing.T, base, id, batch string) harness.BatchResult {
	t.Helper()
	var res harness.BatchResult
	if code, data := do(t, "POST", base+"/modules/"+id+"/packets", batch, &res); code != http.StatusOK && code != http.StatusTooManyRequests {
		t.Fatalf("ingest: status %d: %s", code, data)
	}
	return res
}

// scrape returns the /metrics exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	code, data := do(t, "GET", base+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", code, data)
	}
	return string(data)
}

// sumSeries sums the samples of family name whose label set contains
// every one of labels (each spelled `key="value"`).
func sumSeries(t *testing.T, text, name string, labels ...string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+"{")
		if !ok {
			continue
		}
		set, val, _ := strings.Cut(rest, "} ")
		match := true
		for _, l := range labels {
			match = match && strings.Contains(","+set+",", ","+l+",")
		}
		if !match {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// drainTrace reads GET /modules/{id}/trace with query as JSONL.
func drainTrace(t *testing.T, base, id, query string) []trace.Event {
	t.Helper()
	code, data := do(t, "GET", base+"/modules/"+id+"/trace"+query, "", nil)
	if code != http.StatusOK {
		t.Fatalf("trace%s: status %d: %s", query, code, data)
	}
	var evs []trace.Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("trace%s: bad JSONL: %v", query, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestModuleTraceFilters: GET /modules/{id}/trace narrows the drain by
// kind, flow, verdict and NF name. Every batch replays the same seeded
// trace, so the first batch's whole recording says how many events each
// filter must serve from a later one. A filtered drain consumes what it
// skips, so an unfiltered drain after it is empty; a limited one leaves
// the matching events past its limit in the ring. A bad filter value is
// a 400 bad_spec.
func TestModuleTraceFilters(t *testing.T) {
	_, ts := newTestServer(t)
	st := create(t, ts.URL, `{"name": "cmsketch", "flavor": "ebpf",
		"options": {"trace": {"capacity": 65536, "sample_rate": 1}}}`)
	const packets = 600
	batch := fmt.Sprintf(`{"flows": 32, "packets": %d, "zipf": 1.1, "seed": 7}`, packets)
	drainTrace(t, ts.URL, st.ID, "?limit=1000000") // whatever creating the module recorded

	ingest(t, ts.URL, st.ID, batch)
	all := drainTrace(t, ts.URL, st.ID, "?limit=1000000")
	var first trace.Event
	for _, ev := range all {
		if ev.Kind == trace.KindVerdict {
			first = ev
			break
		}
	}
	if first.Kind != trace.KindVerdict {
		t.Fatalf("a %d-packet batch recorded no verdict event in %d events", packets, len(all))
	}
	count := func(keep func(trace.Event) bool) int {
		n := 0
		for _, ev := range all {
			if keep(ev) {
				n++
			}
		}
		return n
	}

	isVerdict := func(ev trace.Event) bool { return ev.Kind == trace.KindVerdict }
	if n := count(isVerdict); n != packets {
		t.Fatalf("%d verdict events for %d packets at sample rate 1", n, packets)
	}
	ofFlow := func(ev trace.Event) bool { return ev.Flow == first.Flow }
	for _, c := range []struct {
		query string
		keep  func(trace.Event) bool
	}{
		{"?kind=verdict", isVerdict},
		{fmt.Sprintf("?flow=%d", first.Flow), ofFlow},
		{fmt.Sprintf("?flow=0x%x", first.Flow), ofFlow},
		{fmt.Sprintf("?verdict=%d", first.Val), func(ev trace.Event) bool { return isVerdict(ev) && ev.Val == first.Val }},
		{"?nf=" + first.Name, func(ev trace.Event) bool { return ev.Name == first.Name }},
		{fmt.Sprintf("?kind=packet_in&flow=%d", first.Flow), func(ev trace.Event) bool {
			return ev.Kind == trace.KindPacketIn && ev.Flow == first.Flow
		}},
	} {
		want := count(c.keep)
		if want == 0 || want == len(all) {
			t.Fatalf("%s: %d of %d events match, so it narrows nothing", c.query, want, len(all))
		}
		ingest(t, ts.URL, st.ID, batch)
		got := drainTrace(t, ts.URL, st.ID, c.query+"&limit=1000000")
		if len(got) != want {
			t.Errorf("%s served %d events, want %d", c.query, len(got), want)
		}
		for _, ev := range got {
			if !c.keep(ev) {
				t.Errorf("%s served %+v", c.query, ev)
				break
			}
		}
		if rest := drainTrace(t, ts.URL, st.ID, ""); len(rest) != 0 {
			t.Errorf("%s: an unfiltered drain after it served %d events, want 0", c.query, len(rest))
		}
	}

	// A limit stops the drain at the last event it serves: what matches
	// past it is still there for the next reader.
	ingest(t, ts.URL, st.ID, batch)
	nf := "?nf=" + first.Name
	if got := drainTrace(t, ts.URL, st.ID, nf+"&limit=1"); len(got) != 1 || got[0].Name != first.Name {
		t.Fatalf("%s&limit=1 served %+v", nf, got)
	}
	if got, want := len(drainTrace(t, ts.URL, st.ID, nf)), count(func(ev trace.Event) bool { return ev.Name == first.Name })-1; got != want {
		t.Errorf("after %s&limit=1 the rest served %d events, want %d", nf, got, want)
	}

	for _, q := range []string{"?kind=bogus", "?flow=zz", "?flow=0x100000000", "?verdict=-1", "?limit=0"} {
		code, data := do(t, "GET", ts.URL+"/modules/"+st.ID+"/trace"+q, "", nil)
		if code != http.StatusBadRequest || !strings.Contains(string(data), `"reason": "bad_spec"`) {
			t.Errorf("trace%s: status %d body %s, want 400 bad_spec", q, code, data)
		}
	}
}

// TestModuleVerdictSeries: nfd_module_verdicts_total is the sum of the
// verdicts maps the module's ingest responses carried, sheds included,
// over three batches of a guarded module that sheds.
func TestModuleVerdictSeries(t *testing.T) {
	_, ts := newTestServer(t)
	st := create(t, ts.URL, `{"name": "cmsketch", "flavor": "enetstl",
		"options": {"shards": 2, "quota": {"insn_budget": 1}}}`)
	want := map[string]uint64{}
	var shed uint64
	for seed := 1; seed <= 3; seed++ {
		res := ingest(t, ts.URL, st.ID, fmt.Sprintf(`{"flows": 64, "packets": 1000, "seed": %d}`, seed))
		for v, n := range res.VerdictMap {
			want[v] += n
		}
		shed += res.Shed
	}
	if shed == 0 {
		t.Fatal("the guarded module shed nothing; the series would not show sheds")
	}
	text := scrape(t, ts.URL)
	for v, n := range want {
		got := sumSeries(t, text, "nfd_module_verdicts_total", `module="`+st.ID+`"`, `verdict="`+v+`"`)
		if uint64(got) != n {
			t.Errorf("nfd_module_verdicts_total{verdict=%q} = %v, the ingest responses summed to %d", v, got, n)
		}
	}
}

// TestMetricsGuardSeries: a 2-shard guarded module publishes each
// shard's nf_guard_* series under its shard label, and the admitted,
// shed and sampled-out packets across the shards sum to the packets
// the batch reported.
func TestMetricsGuardSeries(t *testing.T) {
	_, ts := newTestServer(t)
	st := create(t, ts.URL, `{"name": "cmsketch", "flavor": "ebpf",
		"options": {"shards": 2, "guard": {"enabled": true}}}`)
	// A flood sized as the guard's own tests size one: 800 packets
	// calibrate both shards' guards before the first attack window,
	// which then empties the busier shard's bucket.
	res := ingest(t, ts.URL, st.ID, `{"flows": 128, "packets": 4000, "zipf": 1.1, "seed": 5, "scenario": "syn-flood"}`)
	if res.Packets != 4000 || res.Shed == 0 {
		t.Fatalf("flood batch: %d packets, %d shed; want 4000 with sheds", res.Packets, res.Shed)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		"nf_guard_admitted_total", "nf_guard_shed_total", "nf_guard_degraded_total",
		"nf_guard_watchdog_trips_total", "nf_guard_shed_enters_total",
		"nf_guard_degrade_enters_total", "nf_guard_budget_insns",
		`nf="cmsketch",shard="0"`, `nf="cmsketch",shard="1"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var accounted float64
	for _, name := range []string{"nf_guard_admitted_total", "nf_guard_shed_total", "nf_guard_degraded_total"} {
		accounted += sumSeries(t, text, name, `nf="cmsketch"`)
	}
	if uint64(accounted) != uint64(res.Packets) {
		t.Errorf("guards accounted %v packets, the batch reported %d", accounted, res.Packets)
	}
	if got := sumSeries(t, text, "nf_guard_shed_total", `nf="cmsketch"`); uint64(got) != res.Shed {
		t.Errorf("nf_guard_shed_total sums to %v across shards, the batch shed %d", got, res.Shed)
	}
}

// TestServerEndToEnd: a stats-enabled, traced module over the daemon's
// surface. The index lists it; /metrics carries the module's VM
// counters and verdict series, and ring accounting that adds up to
// what its trace served; /profile reports over exactly the packets the
// module ran; pprof is mounted.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	st := create(t, ts.URL, `{"name": "cmsketch", "flavor": "ebpf",
		"options": {"stats": true, "trace": {"capacity": 65536}}}`)
	served := len(drainTrace(t, ts.URL, st.ID, "?limit=1000000"))
	ingest(t, ts.URL, st.ID, `{"flows": 32, "packets": 600, "zipf": 1.1, "seed": 7}`)
	served += len(drainTrace(t, ts.URL, st.ID, "?limit=1000000"))

	var index struct {
		Endpoints []string `json:"endpoints"`
	}
	if code, data := do(t, "GET", ts.URL+"/", "", &index); code != http.StatusOK {
		t.Fatalf("index: status %d: %s", code, data)
	}
	if idx := strings.Join(index.Endpoints, " "); !strings.Contains(idx, "/metrics") || !strings.Contains(idx, "/profile") {
		t.Fatalf("index incomplete: %v", index.Endpoints)
	}

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`vm_run_cnt{prog="cmsketch"} 600`,
		"trace_events_emitted_total{",
		`nfd_module_verdicts_total{flavor="eBPF",module="` + st.ID + `",nf="cmsketch",verdict="pass"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	emitted := sumSeries(t, text, "trace_events_emitted_total")
	dropped := sumSeries(t, text, "trace_events_dropped_total")
	if served == 0 || float64(served) != emitted-dropped {
		t.Errorf("trace served %d events; the ring emitted %v and dropped %v", served, emitted, dropped)
	}

	var reports []harness.ProfileReport
	if code, data := do(t, "GET", ts.URL+"/profile", "", &reports); code != http.StatusOK {
		t.Fatalf("/profile: status %d: %s", code, data)
	}
	found := false
	for _, r := range reports {
		found = found || r.Insns > 0 && len(r.Callees) > 0 && r.Packets == 600
	}
	if !found {
		t.Fatalf("/profile has no populated 600-run report: %+v", reports)
	}

	if code, data := do(t, "GET", ts.URL+"/debug/pprof/cmdline", "", nil); code != http.StatusOK || len(data) == 0 {
		t.Fatalf("pprof cmdline: status %d, %d bytes", code, len(data))
	}
}

// TestMetricsMergesStaticRegistry: the series the server counts itself
// (nfd_http_errors_total) and the ones gathered from the modules at
// scrape time render in one exposition, each family once, and a
// repeated scrape does not add the server's counters up again.
func TestMetricsMergesStaticRegistry(t *testing.T) {
	_, ts := newTestServer(t)
	create(t, ts.URL, `{"name": "cmsketch", "flavor": "kernel"}`)
	if code, _ := do(t, "GET", ts.URL+"/modules/no-such-module", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown module: status %d, want 404", code)
	}
	for i := 0; i < 2; i++ {
		text := scrape(t, ts.URL)
		for _, want := range []string{`nfd_http_errors_total{code="404",reason="not_found"} 1` + "\n", "nfd_modules 1\n"} {
			if !strings.Contains(text, want) {
				t.Fatalf("scrape %d: missing %q:\n%s", i, want, text)
			}
		}
		if n := strings.Count(text, "# TYPE nfd_http_errors_total "); n != 1 {
			t.Fatalf("scrape %d: nfd_http_errors_total rendered as %d families", i, n)
		}
	}
}

// TestServerRestartNoGoroutineLeak pins the shutdown path a long-lived
// process exercises: ten Start / create, ingest, scrape / Shutdown
// cycles on one server must not strand listener, handler or module
// goroutines, and the server must be restartable after each.
func TestServerRestartNoGoroutineLeak(t *testing.T) {
	client := &http.Client{}
	// call answers the decoded body of a JSON response; a /metrics scrape
	// decodes nothing.
	call := func(method, url, body string, want int) (nfd.Status, error) {
		var st nfd.Status
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			return st, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return st, err
		}
		if resp.StatusCode != want {
			return st, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, data)
		}
		if method == "POST" {
			err = json.Unmarshal(data, &st)
		}
		return st, err
	}

	srv := nfd.NewServer()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		base := "http://" + addr
		st, err := call("POST", base+"/modules", `{"name": "cmsketch", "flavor": "enetstl", "options": {"stats": true}}`, http.StatusCreated)
		if err == nil {
			_, err = call("POST", base+"/modules/"+st.ID+"/packets", `{"packets": 256}`, http.StatusOK)
		}
		if err == nil {
			_, err = call("GET", base+"/metrics", "", http.StatusOK)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("cycle %d shutdown: %v", i, err)
		}
		if n := len(srv.Registry.List()); n != 0 {
			t.Fatalf("cycle %d: %d modules survived Shutdown", i, n)
		}
	}
	client.CloseIdleConnections()

	// Serve goroutines unwind asynchronously after Shutdown returns; give
	// them a bounded settle window before declaring a leak.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 10 serve cycles", before, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
