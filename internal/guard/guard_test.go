package guard_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

// fakeNF returns a trivial native instance whose cost the tests control
// entirely through Config.CostFn.
func fakeNF() nf.Instance {
	return &nf.NativeInstance{NFName: "fake", Fn: func(pkt []byte) uint64 { return uint64(vm.XDPPass) }}
}

func attackTrace(seed int64) *pktgen.Trace {
	return pktgen.GenerateAttack(pktgen.AttackConfig{
		Base: pktgen.Config{Flows: 128, Packets: 1500, ZipfS: 1.1, Seed: seed},
		Kind: pktgen.ScenarioSYNFlood,
	})
}

// shedSet replays tr through a fresh guarded fake NF and returns the
// per-packet action sequence.
func shedSet(tr *pktgen.Trace, cfg guard.Config) []guard.Action {
	g := guard.New("fake", 0, cfg)
	w := g.Wrap(fakeNF())
	acts := make([]guard.Action, len(tr.Packets))
	for i := range tr.Packets {
		_, act, _ := w.ProcessAt(tr.Packets[i][:], tr.ArrivalOf(i))
		acts[i] = act
	}
	return acts
}

// TestShedDeterminism is the property the whole plane is built around:
// the same seed produces the identical shed set — the guard consumes no
// wall clock and no RNG.
func TestShedDeterminism(t *testing.T) {
	cfg := guard.Config{Enabled: true, InsnBudget: 100, CostFn: func([]byte) uint64 { return 100 }}
	a := shedSet(attackTrace(3), cfg)
	b := shedSet(attackTrace(3), cfg)
	var sheds int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action diverged at packet %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] == guard.ActionShed {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no packets shed: the scenario never pressured the bucket")
	}
	// With a per-flow cost model, different seeds (different flow mixes)
	// must produce different shed sets — the set is trace-derived, not a
	// fixed pattern.
	flowCost := guard.Config{Enabled: true, InsnBudget: 120,
		CostFn: func(pkt []byte) uint64 { return 64 + uint64(pktgen.FlowHash(pkt[:nf.KeyLen])%128) }}
	x := shedSet(attackTrace(3), flowCost)
	y := shedSet(attackTrace(4), flowCost)
	same := len(x) == len(y)
	if same {
		for i := range x {
			if x[i] != y[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical flow-cost shed sets")
	}
}

// TestShedOnlyInsideBursts: with cost exactly matching budget, the
// benign substrate (one packet per tick) can never drain the bucket —
// every shed packet must sit inside an attack window.
func TestShedOnlyInsideBursts(t *testing.T) {
	tr := attackTrace(5)
	cfg := guard.Config{Enabled: true, InsnBudget: 100, CostFn: func([]byte) uint64 { return 100 }}
	acts := shedSet(tr, cfg)
	inWindow := func(tick uint64) bool {
		for _, w := range tr.Windows {
			if tick >= w.Start && tick < w.End {
				return true
			}
		}
		return false
	}
	for i, a := range acts {
		if a == guard.ActionShed && !inWindow(tr.ArrivalOf(i)) {
			t.Fatalf("packet %d shed outside every attack window", i)
		}
	}
}

// TestHysteresis pins the token-bucket state machine on a hand-built
// arrival pattern: a burst drains the bucket, shedding starts, and it
// ends only once refills lift the level past the resume mark — not at
// the first positive balance.
func TestHysteresis(t *testing.T) {
	cfg := guard.Config{
		Enabled: true, InsnBudget: 100, BurstTicks: 4, ResumeFrac: 0.5,
		CostFn: func([]byte) uint64 { return 100 },
	}
	g := guard.New("fake", 0, cfg)
	w := g.Wrap(fakeNF())
	pkt := make([]byte, nf.PktSize)
	// Capacity 400. Four packets on tick 0 drain it to exactly 0, which
	// engages shed state at the fourth charge.
	for i := 0; i < 4; i++ {
		if _, act, _ := w.ProcessAt(pkt, 0); act != guard.ActionAdmit {
			t.Fatalf("packet %d during drain: %v", i, act)
		}
	}
	if !g.Shedding() {
		t.Fatal("bucket exhausted but not shedding")
	}
	// Resume mark is 200: after one tick of refill (level 100) the guard
	// must still shed; after two more ticks (level 300) it must admit.
	if _, act, _ := w.ProcessAt(pkt, 1); act != guard.ActionShed {
		t.Fatalf("below resume mark: %v, want shed", act)
	}
	if _, act, _ := w.ProcessAt(pkt, 3); act != guard.ActionAdmit {
		t.Fatalf("above resume mark: %v, want admit", act)
	}
	if g.Shed() != 1 || g.Admitted() != 5 {
		t.Fatalf("counters: shed %d admitted %d, want 1/5", g.Shed(), g.Admitted())
	}
}

// TestAutoBudgetCalibration: with no configured budget the guard
// calibrates from the first AutoBudget admitted packets and never sheds
// before calibration completes.
func TestAutoBudgetCalibration(t *testing.T) {
	cfg := guard.Config{
		Enabled: true, AutoBudget: 16, Headroom: 2,
		CostFn: func([]byte) uint64 { return 50 },
	}
	g := guard.New("fake", 0, cfg)
	w := g.Wrap(fakeNF())
	pkt := make([]byte, nf.PktSize)
	for i := 0; i < 16; i++ {
		if g.Budget() != 0 {
			t.Fatalf("budget set after %d packets, before calibration finished", i)
		}
		if _, act, _ := w.ProcessAt(pkt, 0); act != guard.ActionAdmit {
			t.Fatalf("shed during calibration at packet %d", i)
		}
	}
	if g.Budget() != 100 {
		t.Fatalf("calibrated budget %d, want mean(50) x headroom(2) = 100", g.Budget())
	}
}

// TestWatchdogDegrade drives the per-packet cost watchdog: consecutive
// runaway packets engage degraded mode, the NF's hook fires, head
// sampling thins the stream, and a clean streak releases it.
func TestWatchdogDegrade(t *testing.T) {
	cost := uint64(100)
	cfg := guard.Config{
		Enabled: true, InsnBudget: 100, BurstTicks: 1 << 20, // bucket never empties
		WatchdogFactor: 4, WatchdogTrips: 3, RecoverPackets: 8,
		WatermarkEvery: 4, HeadSample: 2,
		CostFn: func([]byte) uint64 { return cost },
	}
	g := guard.New("fake", 0, cfg)
	var hook []bool
	g.OnDegrade(func(on bool) { hook = append(hook, on) })
	w := g.Wrap(fakeNF())
	pkt := make([]byte, nf.PktSize)
	tick := uint64(0)
	step := func() guard.Action {
		tick++
		_, act, _ := w.ProcessAt(pkt, tick)
		return act
	}
	// Two runaway packets then a clean one: no degrade (streak broken).
	cost = 1000
	step()
	step()
	cost = 100
	step()
	if g.Degraded() {
		t.Fatal("degraded after a broken watchdog streak")
	}
	// Three consecutive runaways: degrade engages.
	cost = 1000
	for i := 0; i < 3; i++ {
		step()
	}
	if !g.Degraded() || len(hook) != 1 || !hook[0] {
		t.Fatalf("watchdog streak did not engage degrade (hook %v)", hook)
	}
	if g.WatchdogTrips() != 5 {
		t.Fatalf("watchdog trips %d, want 5", g.WatchdogTrips())
	}
	// While degraded, head sampling admits 1 in 2.
	cost = 100
	admitted, sampled := 0, 0
	for i := 0; i < 8; i++ {
		switch step() {
		case guard.ActionAdmit:
			admitted++
		case guard.ActionSample:
			sampled++
		}
	}
	if sampled == 0 || admitted == 0 {
		t.Fatalf("head sampling inactive while degraded: admitted %d sampled %d", admitted, sampled)
	}
	// Clean admitted packets accumulate to RecoverPackets and release.
	for i := 0; i < 64 && g.Degraded(); i++ {
		step()
	}
	if g.Degraded() {
		t.Fatal("degrade never released after a clean streak")
	}
	if len(hook) != 2 || hook[1] {
		t.Fatalf("release did not fire the hook (hook %v)", hook)
	}
}

// TestWatermarkDegrade drives degradation from a pressure probe instead
// of the watchdog, and holds release until pressure clears.
func TestWatermarkDegrade(t *testing.T) {
	cfg := guard.Config{
		Enabled: true, InsnBudget: 100, BurstTicks: 1 << 20,
		RecoverPackets: 4, WatermarkEvery: 4,
		CostFn: func([]byte) uint64 { return 100 },
	}
	g := guard.New("fake", 0, cfg)
	pressure := 0.0
	g.AddWatermark(guard.Watermark{Name: "test", High: 0.9, Low: 0.5, Frac: func() float64 { return pressure }})
	w := g.Wrap(fakeNF())
	pkt := make([]byte, nf.PktSize)
	tick := uint64(0)
	step := func() {
		tick++
		w.ProcessAt(pkt, tick)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if g.Degraded() {
		t.Fatal("degraded without pressure")
	}
	pressure = 0.95
	for i := 0; i < 4; i++ {
		step()
	}
	if !g.Degraded() {
		t.Fatal("high watermark did not engage degrade")
	}
	// Pressure between Low and High: clean streak alone must not release.
	pressure = 0.7
	for i := 0; i < 16; i++ {
		step()
	}
	if !g.Degraded() {
		t.Fatal("released while pressure sat above the low mark")
	}
	pressure = 0.1
	for i := 0; i < 16; i++ {
		step()
	}
	if g.Degraded() {
		t.Fatal("did not release after pressure cleared")
	}
}

// TestCrossShardIndependence: guards are per-shard state machines, so
// replaying shards interleaved (as parallel consumption would) or
// sequentially yields identical per-shard action sequences.
func TestCrossShardIndependence(t *testing.T) {
	tr := attackTrace(9)
	shards := tr.Shard(2)
	cfg := guard.Config{Enabled: true, InsnBudget: 100, CostFn: func([]byte) uint64 { return 100 }}

	sequential := make([][]guard.Action, len(shards))
	for s, sh := range shards {
		sequential[s] = shedSet(sh, cfg)
	}

	// Interleaved replay: round-robin across shards, one packet at a time.
	guards := make([]*guard.Guarded, len(shards))
	for s := range shards {
		guards[s] = guard.New("fake", s, cfg).Wrap(fakeNF())
	}
	interleaved := make([][]guard.Action, len(shards))
	idx := make([]int, len(shards))
	for done := false; !done; {
		done = true
		for s, sh := range shards {
			if idx[s] >= len(sh.Packets) {
				continue
			}
			done = false
			i := idx[s]
			idx[s]++
			_, act, _ := guards[s].ProcessAt(sh.Packets[i][:], sh.ArrivalOf(i))
			interleaved[s] = append(interleaved[s], act)
		}
	}
	for s := range shards {
		for i := range sequential[s] {
			if sequential[s][i] != interleaved[s][i] {
				t.Fatalf("shard %d packet %d: %v sequential vs %v interleaved",
					s, i, sequential[s][i], interleaved[s][i])
			}
		}
	}
}

// TestConcurrentShards replays two shards in parallel goroutines, each
// with its own guard and instance — the production shape. Run under
// -race this pins the no-shared-mutable-state claim; the results must
// also match the serial replay.
func TestConcurrentShards(t *testing.T) {
	tr := attackTrace(11)
	shards := tr.Shard(2)
	cfg := guard.Config{Enabled: true, InsnBudget: 100, CostFn: func([]byte) uint64 { return 100 }}

	want := make([][]guard.Action, len(shards))
	for s, sh := range shards {
		want[s] = shedSet(sh, cfg)
	}
	got := make([][]guard.Action, len(shards))
	var wg sync.WaitGroup
	for s, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[s] = shedSet(sh, cfg)
		}()
	}
	wg.Wait()
	for s := range shards {
		for i := range want[s] {
			if want[s][i] != got[s][i] {
				t.Fatalf("shard %d packet %d diverged under concurrency", s, i)
			}
		}
	}
}

// TestDisabledPassthrough: a disabled guard is transparent — same
// verdicts, zero counters, no state.
func TestDisabledPassthrough(t *testing.T) {
	g := guard.New("fake", 0, guard.Config{})
	w := g.Wrap(fakeNF())
	pkt := make([]byte, nf.PktSize)
	for i := 0; i < 100; i++ {
		v, act, err := w.ProcessAt(pkt, uint64(i))
		if v != uint64(vm.XDPPass) || act != guard.ActionAdmit || err != nil {
			t.Fatalf("disabled guard altered the packet path: v=%d act=%v err=%v", v, act, err)
		}
	}
	if g.Admitted() != 0 || g.Shed() != 0 {
		t.Fatal("disabled guard accounted packets")
	}
}

// TestGuardDisabledOverhead pins the zero-cost-when-disabled contract:
// wrapping a real VM-backed NF with a disabled guard costs < 2% on the
// replay hot path. Measured best-of-N to shed scheduler noise, with
// retries before declaring failure.
func TestGuardDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	build := func() nf.Instance {
		s, err := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return s.Instance
	}
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 20000, ZipfS: 1.1, Seed: 1})
	replay := func(inst nf.Instance) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			for i := range tr.Packets {
				if _, err := inst.Process(tr.Packets[i][:]); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	for attempt := 0; ; attempt++ {
		bare := replay(build())
		wrapped := replay(guard.New("cmsketch", 0, guard.Config{}).Wrap(build()))
		ratio := float64(wrapped) / float64(bare)
		t.Logf("attempt %d: bare %v, wrapped-disabled %v, ratio %.4f", attempt, bare, wrapped, ratio)
		if ratio <= 1.02 {
			return
		}
		if attempt >= 4 {
			t.Fatalf("disabled guard overhead %.2f%% exceeds 2%%", (ratio-1)*100)
		}
	}
}

// TestGuardPublish: the nf_guard_* series render with NF and shard
// labels.
func TestGuardPublish(t *testing.T) {
	tr := attackTrace(13)
	cfg := guard.Config{Enabled: true, InsnBudget: 100, CostFn: func([]byte) uint64 { return 100 }}
	g := guard.New("fake", 3, cfg)
	w := g.Wrap(fakeNF())
	for i := range tr.Packets {
		w.ProcessAt(tr.Packets[i][:], tr.ArrivalOf(i))
	}
	reg := telemetry.NewRegistry()
	g.Publish(reg)
	text := reg.Text()
	for _, name := range []string{
		"nf_guard_admitted_total", "nf_guard_shed_total", "nf_guard_shed_enters_total",
		"nf_guard_budget_insns",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("%s missing from rendered metrics", name)
		}
	}
	if !strings.Contains(text, `shard="3"`) {
		t.Error("shard label missing")
	}
}
