// Command nfd is the long-lived NF daemon: it serves the module
// lifecycle REST API (create/list/get/delete NF instances, push packet
// batches) and, on the same listener, the observability surface: the
// modules' metrics, flight recordings and profiles, and pprof.
//
//	nfd -listen :8080
//	curl -X POST localhost:8080/modules -d '{"name":"cmsketch","flavor":"enetstl"}'
//	curl -X POST localhost:8080/modules/cmsketch-1/packets -d '{"packets":5000}'
//	curl localhost:8080/modules/cmsketch-1/estimates?flow=0
//	curl localhost:8080/metrics
//	curl -X DELETE localhost:8080/modules/cmsketch-1
//
// -smoke runs a self-contained lifecycle check over a loopback
// listener (create → ingest → filtered trace → estimate → sharded
// per-CPU module → scenario-seeded module → index → list → stats →
// metrics → profile → pprof → delete → shutdown) and exits non-zero on
// any failure — the `make nfd-smoke` gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"enetstl/internal/harness"
	"enetstl/internal/nfd"
	"enetstl/internal/trace"
)

func main() {
	var (
		listen = flag.String("listen", ":8080", "listen address (\":0\" picks a free port)")
		smoke  = flag.Bool("smoke", false, "run a self-contained lifecycle check and exit")
	)
	flag.Parse()

	srv := nfd.NewServer()
	if *smoke {
		os.Exit(runSmoke(srv))
	}

	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("nfd: serving on %s\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("nfd: draining modules and shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSmoke drives the full lifecycle over a real loopback listener.
func runSmoke(srv *nfd.Server) int {
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	base := "http://" + addr
	fail := func(step string, err error) int {
		fmt.Fprintf(os.Stderr, "nfd-smoke: %s: %v\n", step, err)
		return 1
	}

	// Create a guarded, stats-enabled, traced sketch module.
	createBody := `{
		"name": "cmsketch", "flavor": "enetstl",
		"options": {"tier": "predecoded", "stats": true,
			"trace": {"capacity": 4096},
			"guard": {"enabled": true}},
		"trace": {"flows": 128, "packets": 2000, "seed": 7}
	}`
	var created struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := call(base, "POST", "/modules", createBody, http.StatusCreated, &created); err != nil {
		return fail("create", err)
	}
	if created.State != "attached" {
		return fail("create", fmt.Errorf("state %q, want attached", created.State))
	}

	// Push a batch; the verdict tally must cover every packet.
	var batch struct {
		Packets  int               `json:"packets"`
		Verdicts map[string]uint64 `json:"verdicts"`
	}
	// Same flows+seed as the module's seed trace, so the estimator probe
	// below addresses flows this batch actually carried.
	if err := call(base, "POST", "/modules/"+created.ID+"/packets",
		`{"flows": 128, "packets": 5000, "seed": 7}`, http.StatusOK, &batch); err != nil {
		return fail("ingest", err)
	}
	if batch.Packets != 5000 {
		return fail("ingest", fmt.Errorf("replayed %d packets, want 5000", batch.Packets))
	}

	// The module's flight recorder holds the batch: drain its verdicts
	// as NDJSON, every line one verdict event.
	ndjson, err := get(base + "/modules/" + created.ID + "/trace?kind=verdict&limit=5")
	if err != nil {
		return fail("trace", err)
	}
	if strings.TrimSpace(ndjson) == "" {
		return fail("trace", fmt.Errorf("no verdict events after a 5000-packet batch"))
	}
	for _, line := range strings.Split(strings.TrimSpace(ndjson), "\n") {
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fail("trace", fmt.Errorf("bad NDJSON line %q: %w", line, err))
		}
		if ev.Kind != trace.KindVerdict {
			return fail("trace", fmt.Errorf("?kind=verdict served a %s event", ev.Kind))
		}
	}

	// The estimator must see the pushed stream.
	var est struct {
		Estimate uint32 `json:"estimate"`
	}
	if err := call(base, "GET", "/modules/"+created.ID+"/estimates?flow=0", "", http.StatusOK, &est); err != nil {
		return fail("estimate", err)
	}
	if est.Estimate == 0 {
		return fail("estimate", fmt.Errorf("flow 0 estimate is zero after 5000 packets"))
	}

	// A sharded module over one per-CPU counter matrix: its estimate is
	// the merge-on-read sum across the shards' private copies, and its
	// shards count into one Stats.
	var sharded struct {
		ID string `json:"id"`
	}
	if err := call(base, "POST", "/modules", `{
		"name": "nitrosketch", "flavor": "enetstl",
		"options": {"shards": 2, "percpu": true, "stats": true},
		"trace": {"flows": 128, "packets": 2000, "seed": 7}
	}`, http.StatusCreated, &sharded); err != nil {
		return fail("sharded create", err)
	}
	// Skewed traffic: a sampled sketch's row minimum reads 0 for a flow
	// too light to be sampled in every row.
	if err := call(base, "POST", "/modules/"+sharded.ID+"/packets",
		`{"flows": 128, "packets": 5000, "zipf": 1.1, "seed": 7}`, http.StatusOK, nil); err != nil {
		return fail("sharded ingest", err)
	}
	est.Estimate = 0
	if err := call(base, "GET", "/modules/"+sharded.ID+"/estimates?flow=0", "", http.StatusOK, &est); err != nil {
		return fail("sharded estimate", err)
	}
	if est.Estimate == 0 {
		return fail("sharded estimate", fmt.Errorf("flow 0 merged estimate is zero after 5000 packets"))
	}

	// A module seeded from an attack scenario takes that scenario's flow
	// table, built with its packets.
	var seeded struct {
		ID string `json:"id"`
	}
	if err := call(base, "POST", "/modules", `{
		"name": "conntrack", "flavor": "ebpf",
		"trace": {"flows": 64, "packets": 500, "seed": 3, "scenario": "churn"}
	}`, http.StatusCreated, &seeded); err != nil {
		return fail("scenario-seeded create", err)
	}

	// The index names the API, and the module list holds all three.
	var index struct {
		Service   string   `json:"service"`
		Endpoints []string `json:"endpoints"`
	}
	if err := call(base, "GET", "/", "", http.StatusOK, &index); err != nil {
		return fail("index", err)
	}
	if index.Service != "nfd" || len(index.Endpoints) == 0 {
		return fail("index", fmt.Errorf("unexpected index %+v", index))
	}
	var list struct {
		Modules []struct {
			ID string `json:"id"`
		} `json:"modules"`
	}
	if err := call(base, "GET", "/modules", "", http.StatusOK, &list); err != nil {
		return fail("list", err)
	}
	if len(list.Modules) != 3 {
		return fail("list", fmt.Errorf("%d modules listed, want 3", len(list.Modules)))
	}

	// Stats flowed into each stats-enabled module's collector.
	progs := map[string]uint64{} // program -> run_cnt, both modules
	for _, id := range []string{created.ID, sharded.ID} {
		var stats struct {
			Programs []struct {
				Prog   string `json:"prog"`
				RunCnt uint64 `json:"run_cnt"`
			} `json:"programs"`
		}
		if err := call(base, "GET", "/modules/"+id+"/stats", "", http.StatusOK, &stats); err != nil {
			return fail("stats", err)
		}
		if len(stats.Programs) == 0 || stats.Programs[0].RunCnt == 0 {
			return fail("stats", fmt.Errorf("%s: no run counts in %+v", id, stats))
		}
		var runs uint64
		for _, p := range stats.Programs {
			if _, dup := progs[p.Prog]; dup {
				return fail("stats", fmt.Errorf("program %s runs in both modules; vm_run_cnt cannot tell them apart", p.Prog))
			}
			progs[p.Prog] = p.RunCnt
			runs += p.RunCnt
		}
		// The sharded module's shards share one Stats: it counts each
		// ingested packet once.
		if id == sharded.ID && runs != 5000 {
			return fail("stats", fmt.Errorf("%s: %d runs for 5000 ingested packets", id, runs))
		}
	}

	// /metrics carries the module series, and each program's vm_run_cnt
	// is the run count its module's stats show: published once, the
	// sharded module's shards merged exactly once.
	text, err := get(base + "/metrics")
	if err != nil {
		return fail("metrics", err)
	}
	for _, want := range []string{"nfd_modules", "nfd_module_packets_total", "nfd_module_verdicts_total", "nf_guard_admitted_total", "vm_run_cnt"} {
		if !strings.Contains(text, want) {
			return fail("metrics", fmt.Errorf("missing %s series", want))
		}
	}
	for prog, want := range progs {
		got, err := sample(text, `vm_run_cnt{prog="`+prog+`"}`)
		if err != nil {
			return fail("metrics", err)
		}
		if got != want {
			return fail("metrics", fmt.Errorf("vm_run_cnt{prog=%q} = %d, the module's stats counted %d", prog, got, want))
		}
	}

	for _, id := range []string{sharded.ID, seeded.ID} {
		if err := call(base, "DELETE", "/modules/"+id, "", http.StatusOK, nil); err != nil {
			return fail("delete "+id, err)
		}
	}

	// /profile reports the stats-enabled module's programs.
	var reports []harness.ProfileReport
	if err := call(base, "GET", "/profile", "", http.StatusOK, &reports); err != nil {
		return fail("profile", err)
	}
	if len(reports) == 0 || reports[0].Flavor != created.ID || reports[0].Packets == 0 {
		return fail("profile", fmt.Errorf("no report for %s in %+v", created.ID, reports))
	}

	// The Go runtime profiler is mounted.
	if _, err := get(base + "/debug/pprof/cmdline"); err != nil {
		return fail("pprof", err)
	}

	// Delete drains and removes; a second delete 404s.
	if err := call(base, "DELETE", "/modules/"+created.ID, "", http.StatusOK, nil); err != nil {
		return fail("delete", err)
	}
	if err := call(base, "GET", "/modules/"+created.ID, "", http.StatusNotFound, nil); err != nil {
		return fail("post-delete get", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fail("shutdown", err)
	}
	fmt.Println("nfd-smoke: ok (create → ingest → filtered trace → estimate → sharded per-CPU module → scenario-seeded module → index → list → stats → metrics → profile → pprof → delete → shutdown)")
	return 0
}

func call(base, method, path, body string, wantCode int, out any) error {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: bad response JSON: %w", method, path, err)
		}
	}
	return nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(data), nil
}

// sample reads the value of the one exposition line that begins with
// series (its name and label set).
func sample(text, series string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s sample", series)
}
