package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"enetstl/internal/nfd"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every fixed amount of work (one set-up, one-rotation
	// rounds of small batches, single-sample probes); its numbers mean
	// nothing and it exists for bench_test.go.
	quick    bool
	traceOut string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	failures []string // the first few, for the human reader
}

// client drives the daemon over one keep-alive loopback TCP connection,
// closed loop: the next request is sent only after the previous answer
// has been read to its last byte.
type client struct {
	base string
	hc   *http.Client
	rd   bytes.Reader
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	return &client{base: "http://" + addr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// do sends one request and reads the whole answer; the returned body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (status int, answer []byte, start time.Time, dur time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		c.rd.Reset(body)
		rd = &c.rd
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, start, 0, err
	}
	start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, start, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), start, time.Since(start), err
}

// batchAnswer is the part of harness.BatchResult the benchmark checks.
type batchAnswer struct {
	Packets  int               `json:"packets"`
	Shed     uint64            `json:"shed"`
	Ns       int64             `json:"ns"`
	Verdicts map[string]uint64 `json:"verdicts"`
}

// opResult is what the daemon answered to one op.
type opResult struct {
	status   int
	start    time.Time
	dur      time.Duration
	failed   bool
	batch    batchAnswer // opPackets
	estimate uint32      // opEstimate
}

// runner holds one daemon under test, the client driving it, and the
// oracle twins shadowing its modules.
type runner struct {
	wl    *workload
	srv   *nfd.Server
	cl    *client
	ids   []string // daemon-assigned id per workload module, "" when not live
	twins []*twin  // same indexing; nil when not live

	attempted, failed int
	failures          []string

	// Round-trips in ms of every successful request, by op kind. The
	// opPackets slice has a fixed capacity allocated before the first
	// measured round so heap_mb does not depend on how many rounds fit
	// in the run; it stops growing when full.
	latencyMs [numOpKinds][]float64
}

const maxBatchSamples = 1 << 17

func newRunner(wl *workload) *runner {
	r := &runner{wl: wl, ids: make([]string, len(wl.modules)), twins: make([]*twin, len(wl.modules))}
	r.latencyMs[opPackets] = make([]float64, 0, maxBatchSamples)
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// failf counts one failed operation.
func (r *runner) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail marks an op failed, once however many checks it breaks.
func (r *runner) fail(res *opResult, format string, args ...any) {
	if !res.failed {
		res.failed = true
		r.failf(format, args...)
	}
}

// roundStat is one round's ingest cost: the summed wall time of its
// POST packets round-trips and the packets they acknowledged.
type roundStat struct{ ns, pkts int64 }

func (s roundStat) nsPerPkt() float64 { return float64(s.ns) / float64(s.pkts) }

// floors holds, for a request sequence that is repeated unchanged, the
// fastest round-trip seen at each position. The host is a shared 2-vCPU
// VM whose speed drifts by tens of percent over seconds to minutes, and
// interference only ever adds time: each request's floor over the
// repetitions estimates its undisturbed cost, and repeats within 2%
// where the median of whole rounds moves by 6-18% (README.md,
// "Steadiness"). Every end-to-end time is a sum or median of such floors.
type floors struct {
	ops  []op
	best []time.Duration // 0 until the position has a successful observation
}

func newFloors(ops []op) *floors {
	return &floors{ops: ops, best: make([]time.Duration, len(ops))}
}

func (f *floors) observe(results []opResult) {
	for i := range results {
		if d := results[i].dur; !results[i].failed && (f.best[i] == 0 || d < f.best[i]) {
			f.best[i] = d
		}
	}
}

// of returns the floors of the ops of one kind, in ms, and the packets
// those ops carry.
func (f *floors) of(kind opKind) (floorMs []float64, packets int) {
	for i, o := range f.ops {
		if o.kind == kind && f.best[i] > 0 {
			floorMs = append(floorMs, ms(f.best[i]))
			packets += o.packets
		}
	}
	return floorMs, packets
}

func (f *floors) total() (t time.Duration) {
	for _, d := range f.best {
		t += d
	}
	return t
}

func sum(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// play sends ops in order, storing each answer in out, and checks what
// can be checked without the oracle: the status, and that the verdict
// tally covers every packet.
func (r *runner) play(ops []op, out []opResult) roundStat {
	var st roundStat
	for i := range ops {
		o, res := &ops[i], &out[i]
		*res = opResult{}
		r.attempted++
		var method, path string
		var body []byte
		want := http.StatusOK
		switch o.kind {
		case opCreate:
			method, path, body, want = "POST", "/modules", r.wl.modules[o.mod].body, http.StatusCreated
		case opPackets:
			method, path, body = "POST", "/modules/"+r.ids[o.mod]+"/packets", o.body
		case opEstimate:
			method, path = "GET", "/modules/"+r.ids[o.mod]+"/estimates?flow=0"
			if !r.wl.modules[o.mod].hasEstimator {
				want = http.StatusNotFound
			}
		case opStats:
			method, path = "GET", "/modules/"+r.ids[o.mod]+"/stats"
		case opMetrics:
			method, path = "GET", "/metrics"
		case opDelete:
			method, path = "DELETE", "/modules/"+r.ids[o.mod]
		}
		status, answer, start, dur, err := r.cl.do(method, path, body)
		res.status, res.start, res.dur = status, start, dur
		if err != nil {
			r.fail(res, "%s %s: %v", method, path, err)
			continue
		}
		if o.kind == opPackets && o.mayShed && status == http.StatusTooManyRequests {
			want = status // checked against the shed count below
		}
		if status != want {
			r.fail(res, "%s %s: status %d, want %d: %.120s", method, path, status, want, answer)
			continue
		}
		if lat := &r.latencyMs[o.kind]; o.kind != opPackets || len(*lat) < cap(*lat) {
			*lat = append(*lat, ms(dur))
		}
		switch o.kind {
		case opCreate:
			var created struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(answer, &created); err != nil || created.ID == "" {
				r.fail(res, "create %s: bad answer %.120s", r.wl.modules[o.mod].name, answer)
			}
			r.ids[o.mod] = created.ID
		case opPackets:
			st.ns += dur.Nanoseconds()
			if err := json.Unmarshal(answer, &res.batch); err != nil {
				r.fail(res, "packets %s: bad answer: %v", r.ids[o.mod], err)
				continue
			}
			b := &res.batch
			var tally uint64
			for _, n := range b.Verdicts {
				tally += n
			}
			switch {
			case b.Packets != o.packets || tally != uint64(o.packets):
				r.fail(res, "packets %s: %d packets, %d verdicts, sent %d", r.ids[o.mod], b.Packets, tally, o.packets)
			case (status == http.StatusTooManyRequests) != (b.Shed > 0):
				r.fail(res, "packets %s: status %d with %d shed", r.ids[o.mod], status, b.Shed)
			default:
				st.pkts += int64(o.packets)
			}
		case opEstimate:
			if status == http.StatusOK {
				var est struct {
					Estimate uint32 `json:"estimate"`
				}
				if err := json.Unmarshal(answer, &est); err != nil {
					r.fail(res, "estimate %s: bad answer: %v", r.ids[o.mod], err)
				}
				res.estimate = est.Estimate
			}
		case opStats:
			var stats struct {
				Module string `json:"module"`
			}
			if err := json.Unmarshal(answer, &stats); err != nil || stats.Module != r.ids[o.mod] {
				r.fail(res, "stats %s: bad answer %.120s", r.ids[o.mod], answer)
			}
		case opMetrics:
			if !bytes.Contains(answer, []byte("nfd_modules")) {
				r.fail(res, "metrics: no nfd_modules series")
			}
		case opDelete:
			r.ids[o.mod] = ""
		}
	}
	return st
}

// tracedTotals accumulates the counts of a traced pass.
type tracedTotals struct {
	batches, packets, daemonNs, insns int64
	guardedBatches, guarded429        int64
	offered, shed                     int64
}

// verify replays played ops through the oracle twins, in order, and
// fails every op whose answer differs from the twin's. With a span log
// it also records, per ingest request, the root span around the HTTP
// call and the layer spans beneath it (see span.go for the sources).
func (r *runner) verify(ops []op, results []opResult, epoch time.Time, log *spanLog, tot *tracedTotals) {
	for i := range ops {
		o, res := &ops[i], &results[i]
		if res.failed {
			continue
		}
		switch o.kind {
		case opCreate:
			tw, err := newTwin(r.wl.modules[o.mod].body)
			if err != nil {
				r.fail(res, "twin of %s: %v", r.wl.modules[o.mod].name, err)
			}
			r.twins[o.mod] = tw
		case opDelete:
			r.twins[o.mod] = nil
		case opEstimate:
			tw := r.twins[o.mod]
			if tw == nil || res.status != http.StatusOK {
				continue
			}
			if want, err := tw.estimate(0); err != nil || want != res.estimate {
				r.fail(res, "estimate %s flow 0: daemon %d, twin %d (%v)", tw.name, res.estimate, want, err)
			}
		case opPackets:
			tw := r.twins[o.mod]
			if tw == nil {
				continue
			}
			want, it, err := tw.ingest(o.body)
			if err != nil {
				r.fail(res, "twin ingest %s: %v", tw.name, err)
				continue
			}
			got := &res.batch
			same := want.Packets == got.Packets && want.Shed == got.Shed && len(want.VerdictMap) == len(got.Verdicts)
			for k, n := range want.VerdictMap {
				same = same && got.Verdicts[k] == n
			}
			if !same {
				r.fail(res, "oracle %s: daemon %+v, twin shed %d verdicts %v", tw.name, *got, want.Shed, want.VerdictMap)
				continue
			}
			if log == nil {
				continue
			}
			tot.batches++
			tot.packets += int64(got.Packets)
			tot.daemonNs += got.Ns
			tot.insns += int64(it.vm.insns)
			if r.wl.modules[o.mod].guarded {
				tot.guardedBatches++
				tot.offered += int64(got.Packets)
				tot.shed += int64(got.Shed)
				if res.status == http.StatusTooManyRequests {
					tot.guarded429++
				}
			}
			batch := int(tot.batches)
			at := res.start.Sub(epoch).Nanoseconds()
			root := log.add(0, batch, "client.roundtrip", "client", at, res.dur.Nanoseconds())
			for _, step := range []struct {
				name string
				d    time.Duration
			}{{"nfd.decode", it.decode}, {"runtime.build", it.build}, {"nfcatalog.prepare", it.prepare}} {
				log.add(root, batch, step.name, "twin", at, step.d.Nanoseconds())
				at += step.d.Nanoseconds()
			}
			replay := log.add(root, batch, "harness.replay", "daemon", at, got.Ns)
			if it.vm.runNs > 0 && it.replay > 0 {
				// The twin runs with vm.Stats on, the daemon module
				// usually without: apply the twin's shares to the
				// daemon's own replay time.
				scale := float64(got.Ns) / float64(it.replay.Nanoseconds())
				run := log.add(replay, batch, "vm.run", "vmstats", at, int64(float64(it.vm.runNs)*scale))
				helper := int64(float64(it.vm.helperNs) * scale)
				log.add(run, batch, "vm.helper", "vmstats", at, helper)
				log.add(run, batch, "vm.kfunc", "vmstats", at+helper, int64(float64(it.vm.kfuncNs)*scale))
			}
			at += got.Ns
			log.add(root, batch, "nfd.encode", "twin", at, it.encode.Nanoseconds())
		}
	}
}

// setupOps is the request sequence of one set-up: create the
// persistent modules, then one warm-up rotation.
func (r *runner) setupOps() []op {
	var ops []op
	if r.wl.persistent {
		for i := range r.wl.modules {
			ops = append(ops, op{kind: opCreate, mod: i})
		}
	}
	return append(ops, r.wl.round[:r.wl.warm]...)
}

// setUp starts a daemon and plays the set-up sequence, feeding f; it
// returns how long the daemon took to start listening. The oracle then
// checks every answer, and the estimators while daemon and twins are
// still in lock-step.
func (r *runner) setUp(f *floors) (time.Duration, error) {
	results := make([]opResult, len(f.ops))
	start := time.Now()
	r.srv = nfd.NewServer()
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	listening := time.Since(start)
	r.cl = newClient(addr)
	r.play(f.ops, results)
	f.observe(results)
	r.verify(f.ops, results, start, nil, nil)
	r.checkEstimates()
	return listening, nil
}

// liveOps returns one op of the given kind per live module.
func (r *runner) liveOps(kind opKind) []op {
	var ops []op
	for i, id := range r.ids {
		if id != "" {
			ops = append(ops, op{kind: kind, mod: i})
		}
	}
	return ops
}

// checkEstimates probes every live module's estimator over HTTP and
// compares it with the twin's. Only meaningful while the twins have seen
// every batch the daemon has.
func (r *runner) checkEstimates() {
	ops := r.liveOps(opEstimate)
	results := make([]opResult, len(ops))
	r.play(ops, results)
	r.verify(ops, results, time.Time{}, nil, nil)
}

// tearDown deletes the live modules over HTTP and stops the daemon.
func (r *runner) tearDown() error {
	ops := r.liveOps(opDelete)
	r.play(ops, make([]opResult, len(ops)))
	for i := range r.twins {
		r.twins[i] = nil
	}
	r.cl.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// rounds plays whole rounds until d has passed (at least one), feeding
// f, and returns each round's ingest cost.
func (r *runner) rounds(d time.Duration, f *floors) []roundStat {
	results := make([]opResult, len(r.wl.round))
	var stats []roundStat
	for deadline := time.Now().Add(d); len(stats) == 0 || time.Now().Before(deadline); {
		stats = append(stats, r.play(r.wl.round, results))
		f.observe(results)
	}
	return stats
}

// floorNsPerPkt is the ingest cost of one undisturbed round: the floors
// of its POST packets round-trips over the packets they carry.
func floorNsPerPkt(f *floors) float64 {
	floorMs, packets := f.of(opPackets)
	return sum(floorMs) * 1e6 / float64(packets)
}

// medianNsPerPkt is the median round's ingest cost, interference
// included.
func medianNsPerPkt(stats []roundStat) float64 {
	var perRound []float64
	for _, s := range stats {
		if s.pkts > 0 {
			perRound = append(perRound, s.nsPerPkt())
		}
	}
	return median(perRound)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that still has ten samples
// beyond it, and that percentile.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(len(s)-11, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func total(stats []roundStat) roundStat {
	var t roundStat
	for _, s := range stats {
		t.ns += s.ns
		t.pkts += s.pkts
	}
	return t
}

// liveHeapMB is the heap still reachable after the rounds. Two
// collections, so that what the first one's finalizers released is gone
// too; HeapAlloc rather than HeapInuse, whose span fragmentation moves
// by 5% between identical runs of a 3 MB heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runWorkload is one benchmark run: one workload, either the untraced
// end-to-end pass or the traced per-layer pass.
func runWorkload(cfg config, out io.Writer) (result, error) {
	wl, err := buildWorkload(cfg.workload, cfg.seed, cfg.quick)
	if err != nil {
		return result{}, err
	}
	r := newRunner(wl)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	metrics := map[string]float64{}

	// Many set-ups per run, the last one kept: one alone is 0.01-0.2 s,
	// and its requests need repetitions for their floors like any other.
	// At least 5, then as many as fit in a fifth of the run: spread over
	// seconds, because the host can be slow for a whole second.
	minSetups, maxSetups := 5, 500
	if cfg.quick || cfg.trace {
		minSetups, maxSetups = 1, 1
	}
	setupFloors := newFloors(r.setupOps())
	var listening time.Duration
	for n, start := 0, time.Now(); n < minSetups || (n < maxSetups && time.Since(start) < budget/5); n++ {
		if n > 0 {
			if err := r.tearDown(); err != nil {
				return result{}, err
			}
		}
		d, err := r.setUp(setupFloors)
		if err != nil {
			return result{}, err
		}
		if n == 0 || d < listening {
			listening = d
		}
	}

	roundFloors := newFloors(wl.round)
	if !cfg.trace {
		stats := r.rounds(budget, roundFloors)
		metrics["heap_mb"] = liveHeapMB()
		metrics["ns_per_pkt"] = floorNsPerPkt(roundFloors)
		batchMs, _ := roundFloors.of(opPackets)
		metrics["batch_p50_ms"] = median(batchMs)
		fmt.Fprintf(out, "%s: %d rounds, %d batches; median round %.1f ns/pkt against the floor's %.1f\n",
			wl.name, len(stats), len(r.latencyMs[opPackets]), medianNsPerPkt(stats), metrics["ns_per_pkt"])
	} else if err := r.tracedPass(cfg, budget, roundFloors, metrics, out); err != nil {
		return result{}, err
	}

	// Every workload ends with the control-plane requests an operator
	// makes, so their latencies exist on all of them.
	ops := append(r.liveOps(opEstimate), op{kind: opMetrics})
	r.play(ops, make([]opResult, len(ops)))
	if err := r.tearDown(); err != nil {
		return result{}, err
	}

	if !cfg.trace {
		metrics["setup_s"] = (listening + setupFloors.total()).Seconds()
		createMs, _ := setupFloors.of(opCreate)
		if !wl.persistent {
			createMs, _ = roundFloors.of(opCreate)
		}
		metrics["create_ms"] = sum(createMs) / float64(len(createMs))
	} else {
		metrics["nfd.create_ms"] = median(r.latencyMs[opCreate])
		metrics["nfd.delete_ms"] = median(r.latencyMs[opDelete])
		metrics["nfd.estimate_ms"] = median(r.latencyMs[opEstimate])
		metrics["obs.metrics_scrape_ms"] = median(r.latencyMs[opMetrics])
		runProbes(cfg, metrics)
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}, failures: r.failures}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	for _, m := range declared {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.failures = append(res.failures, fmt.Sprintf("metric %s was not measured", m.Name))
			res.Failed++
			v = 0
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedPass makes the per-layer measurements that belong to the
// workload: a fixed number of rounds played untouched and then replayed
// through the twins for the layer spans, followed by untraced rounds for
// the tail, the allocation rate and the tracing overhead.
func (r *runner) tracedPass(cfg config, budget time.Duration, f *floors, metrics map[string]float64, out io.Writer) error {
	wl := r.wl
	n := wl.tracedRounds
	if cfg.quick {
		n = 1
	}
	epoch := time.Now()
	played := make([][]opResult, n)
	var traced []roundStat
	for i := range played {
		played[i] = make([]opResult, len(wl.round))
		traced = append(traced, r.play(wl.round, played[i]))
	}
	log, tot := &spanLog{}, &tracedTotals{}
	for i := range played {
		r.verify(wl.round, played[i], epoch, log, tot)
	}
	r.checkEstimates()

	r.latencyMs[opPackets] = r.latencyMs[opPackets][:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats := r.rounds(budget*3/10, f)
	runtime.ReadMemStats(&after)
	untraced := total(stats)

	if tot.packets == 0 || untraced.pkts == 0 {
		return fmt.Errorf("%s: traced pass acknowledged no packets (%s)", wl.name, strings.Join(r.failures, "; "))
	}
	self, _ := selfTimes(log.spans)
	pkts := float64(tot.packets)
	perPkt := func(name string) float64 { return float64(self[name]) / pkts }
	vmRun := self["vm.run"] + self["vm.helper"] + self["vm.kfunc"]
	daemon := float64(tot.daemonNs)

	metrics["nfd.http_self_ns_per_pkt"] = perPkt("client.roundtrip")
	metrics["nfd.decode_ns_per_pkt"] = perPkt("nfd.decode")
	metrics["nfd.encode_ns_per_batch"] = float64(self["nfd.encode"]) / float64(tot.batches)
	metrics["runtime.build_ns_per_pkt"] = perPkt("runtime.build")
	metrics["nfcatalog.prepare_ns_per_pkt"] = perPkt("nfcatalog.prepare")
	metrics["harness.replay_ns_per_pkt"] = daemon / pkts
	metrics["harness.replay_self_ns_per_pkt"] = perPkt("harness.replay")
	metrics["harness.replay_share"] = daemon / float64(total(traced).ns)
	metrics["vm.run_ns_per_pkt"] = float64(vmRun) / pkts
	metrics["vm.insns_per_pkt"] = float64(tot.insns) / pkts
	metrics["vm.ns_per_insn"] = 0
	if tot.insns > 0 {
		metrics["vm.ns_per_insn"] = float64(self["vm.run"]) / float64(tot.insns)
	}
	metrics["vm.dispatch_share"] = float64(self["vm.run"]) / daemon
	metrics["vm.helper_share"] = float64(self["vm.helper"]) / daemon
	metrics["vm.kfunc_share"] = float64(self["vm.kfunc"]) / daemon
	metrics["guard.shed_ratio"], metrics["guard.http_429_ratio"] = 0, 0
	if tot.guardedBatches > 0 {
		metrics["guard.shed_ratio"] = float64(tot.shed) / float64(tot.offered)
		metrics["guard.http_429_ratio"] = float64(tot.guarded429) / float64(tot.guardedBatches)
	}
	metrics["bench.trace_overhead_pct"] = 100 * (total(traced).nsPerPkt() - untraced.nsPerPkt()) / untraced.nsPerPkt()
	metrics["bench.interference_pct"] = 100 * (medianNsPerPkt(stats) - floorNsPerPkt(f)) / floorNsPerPkt(f)

	residual, worst := accounting(log.spans)
	metrics["bench.accounting_residual_pct"] = 100 * residual
	if residual > 0.05 {
		r.attempted++
		r.failf("accounting: layer self times exceed the traced round-trips by %.1f%%; largest overrun under %s", 100*residual, worst)
	}

	metrics["nfd.batch_tail_ms"], metrics["nfd.batch_tail_pct"] = tail(r.latencyMs[opPackets])
	metrics["nfd.batch_samples"] = float64(len(r.latencyMs[opPackets]))
	metrics["nfd.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(untraced.pkts)
	metrics["nfd.bytes_per_pkt"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(untraced.pkts)

	fmt.Fprintf(out, "%s: traced %d batches / %d packets, %d spans", wl.name, tot.batches, tot.packets, len(log.spans))
	if cfg.traceOut != "" {
		if err := log.writeJSONL(cfg.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, " -> %s", cfg.traceOut)
	}
	fmt.Fprintln(out)
	return nil
}
