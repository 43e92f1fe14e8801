package obs_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/obs"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// get fetches a URL and returns the body; fails the test on non-200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestServerEndToEnd replays an NF with a recorder and stats attached
// to its VM, hands both to a server bound to 127.0.0.1:0 the way an
// owner does (a stats gatherer, a profile source, the recorder), then
// scrapes every endpoint.
func TestServerEndToEnd(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 32, Packets: 600, ZipfS: 1.1, Seed: 7})
	nfcatalog.PrepareTrace("cmsketch", tr)
	built, err := nfcatalog.BuildFull("cmsketch", nf.EBPF, tr)
	if err != nil {
		t.Fatal(err)
	}
	inst := built.Inst
	st := vm.NewStats()
	rec := trace.NewRecorder(trace.Config{Capacity: 1 << 16})
	for _, m := range nf.VMs(inst) {
		m.SetStats(st)
		m.SetRecorder(rec)
	}

	srv := obs.New()
	srv.SetRecorder(rec)
	wrapped := obs.Instrument(inst, srv.Registry())
	for i := range tr.Packets {
		if _, err := wrapped.Process(tr.Packets[i][:]); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	// Registered after the replay: vm.Stats is not safe to read while a
	// run mutates it.
	srv.AddGatherer(st.Publish)
	srv.SetProfile(func() []*harness.ProfileReport { return harness.Reports(st, "live") })

	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	// Index lists the endpoints.
	if idx := get(t, base+"/"); !strings.Contains(idx, "/metrics") || !strings.Contains(idx, "/trace") {
		t.Fatalf("index page incomplete:\n%s", idx)
	}

	// /metrics: live VM counters, ring accounting, and the instrumented
	// latency histogram must all be present in one exposition.
	metrics := get(t, base+"/metrics")
	for _, want := range []string{
		`vm_run_cnt{prog="cmsketch"} 600`,
		"trace_events_emitted_total{",
		`nf_latency_ns_count{flavor="eBPF",nf="cmsketch"} 600`,
		`nf_verdicts_total{`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// /trace with a kind filter: only verdict events, valid JSONL, and
	// the count matches the packets processed (full sample rate).
	body := get(t, base+"/trace?kind=verdict&limit=100000")
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	var firstFlow uint32
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Kind != trace.KindVerdict {
			t.Fatalf("kind filter leaked a %s event", ev.Kind)
		}
		if lines == 0 {
			firstFlow = ev.Flow
		}
		lines++
	}
	if lines != 600 {
		t.Fatalf("/trace?kind=verdict returned %d lines, want 600", lines)
	}

	// The ring was consumed; a second scrape of the live ring is empty.
	if body := get(t, base+"/trace"); strings.TrimSpace(body) != "" {
		t.Fatalf("second /trace scrape not empty:\n%s", body)
	}

	// Flow filtering over a static (pre-merged) event stream.
	evs := []trace.Event{
		{TS: 1, Kind: trace.KindPacketIn, Flow: firstFlow, Name: "cmsketch"},
		{TS: 2, Kind: trace.KindVerdict, Flow: firstFlow, Val: 2, Name: "cmsketch"},
		{TS: 3, Kind: trace.KindVerdict, Flow: firstFlow + 1, Val: 1, Name: "other"},
	}
	srv.AddEvents(evs)
	body = get(t, fmt.Sprintf("%s/trace?flow=%d", base, firstFlow))
	if n := strings.Count(body, "\n"); n != 2 {
		t.Fatalf("flow filter returned %d lines, want 2:\n%s", n, body)
	}
	body = get(t, base+"/trace?verdict=1")
	if n := strings.Count(body, "\n"); n != 1 || !strings.Contains(body, `"other"`) {
		t.Fatalf("verdict filter wrong:\n%s", body)
	}
	body = get(t, base+"/trace?nf=other&limit=1")
	if n := strings.Count(body, "\n"); n != 1 {
		t.Fatalf("nf+limit filter returned %d lines:\n%s", n, body)
	}
	if resp, err := http.Get(base + "/trace?kind=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: err=%v status=%v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// /profile: attribution from the registered source, over exactly
	// the packets the instance ran.
	var reports []harness.ProfileReport
	if err := json.Unmarshal([]byte(get(t, base+"/profile")), &reports); err != nil {
		t.Fatalf("/profile not JSON: %v", err)
	}
	found := false
	for _, r := range reports {
		if r.Insns > 0 && len(r.Callees) > 0 && r.Packets == 600 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/profile has no populated 600-run report: %+v", reports)
	}

	// pprof is mounted.
	if body := get(t, base+"/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof cmdline empty")
	}
}

// TestMetricsMergesStaticRegistry: post-run results published into the
// static registry appear in the scrape alongside gatherer output.
func TestMetricsMergesStaticRegistry(t *testing.T) {
	srv := obs.New()
	srv.Registry().Counter("replay_done_total", telemetry.L("nf", "x")).Add(3)
	srv.AddGatherer(func(r *telemetry.Registry) {
		r.Gauge("live_gauge").Set(7)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	metrics := get(t, "http://"+addr+"/metrics")
	for _, want := range []string{`replay_done_total{nf="x"} 3`, "live_gauge 7"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	// Scrapes are idempotent: the static counter must not double.
	metrics = get(t, "http://"+addr+"/metrics")
	if !strings.Contains(metrics, `replay_done_total{nf="x"} 3`) {
		t.Fatalf("static counter drifted across scrapes:\n%s", metrics)
	}
}
