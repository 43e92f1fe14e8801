package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vm_run_cnt", L("prog", "x"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same series.
	if r.Counter("vm_run_cnt", L("prog", "x")) != c {
		t.Fatal("counter series not deduplicated")
	}
	// Label order must not split series.
	c2 := r.Counter("ops", L("a", "1"), L("b", "2"))
	c2.Inc()
	if r.Counter("ops", L("b", "2"), L("a", "1")).Value() != 1 {
		t.Fatal("label order split the series")
	}
	g := r.Gauge("pps")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m")
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm_run_cnt", L("prog", "cms")).Add(7)
	r.Counter("vm_run_cnt", L("prog", "bloom")).Add(3)
	r.Gauge("nf_pps", L("nf", "cms")).Set(123456.5)
	h := r.Histogram("lat_ns", []float64{10, 100}, L("nf", "cms"))
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.SetHelp("vm_run_cnt", "program invocations")

	text := r.Text()
	for _, want := range []string{
		"# HELP vm_run_cnt program invocations",
		"# TYPE vm_run_cnt counter",
		`vm_run_cnt{prog="bloom"} 3`,
		`vm_run_cnt{prog="cms"} 7`,
		"# TYPE nf_pps gauge",
		`nf_pps{nf="cms"} 123456.5`,
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{nf="cms",le="10"} 1`,
		`lat_ns_bucket{nf="cms",le="100"} 2`,
		`lat_ns_bucket{nf="cms",le="+Inf"} 3`,
		`lat_ns_sum{nf="cms"} 555`,
		`lat_ns_count{nf="cms"} 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Deterministic: same registry renders identically and families are
	// name-sorted.
	if text != r.Text() {
		t.Fatal("exposition text not deterministic")
	}
	if strings.Index(text, "lat_ns") > strings.Index(text, "vm_run_cnt") {
		t.Fatal("families not sorted by name")
	}
	// bloom sorts before cms within the family.
	if strings.Index(text, `prog="bloom"`) > strings.Index(text, `prog="cms"`) {
		t.Fatal("series not sorted by labels")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", "a\"b\\c\nd")).Inc()
	text := r.Text()
	if !strings.Contains(text, `c{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped: %s", text)
	}
}

func TestQuantileRankInterpolation(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2.5}, // interpolates between ranks
		{[]float64{1, 2, 3, 4}, 0.99, 3.97},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{7}, 0.99, 7},
		{[]float64{0, 100}, 0.25, 25},
	}
	for _, c := range cases {
		got := Quantile(c.xs, c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	// The old floor-index math returned xs[int(0.99*3)] = xs[2] = 3 for
	// the 4-sample p99 — the bias this function fixes.
	if q := Quantile([]float64{1, 2, 3, 4}, 0.99); q <= 3 {
		t.Errorf("p99 = %v still floor-biased", q)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40, 80})
	for v := 1.0; v <= 80; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 80 || s.Min != 1 || s.Max != 80 {
		t.Fatalf("snapshot basics: %+v", s)
	}
	if math.Abs(s.Mean-40.5) > 1e-9 {
		t.Fatalf("mean = %v, want 40.5", s.Mean)
	}
	// Uniform 1..80 over bounds 10/20/40/80: p50 should land near 40,
	// p99 near 80 (bucket interpolation, so allow slack).
	if s.P50 < 30 || s.P50 > 50 {
		t.Fatalf("p50 = %v, want ~40", s.P50)
	}
	if s.P99 < 70 || s.P99 > 80 {
		t.Fatalf("p99 = %v, want ~79", s.P99)
	}
	// Values beyond the last bound land in +Inf and cap at max.
	h2 := NewHistogram([]float64{10})
	h2.Observe(1000)
	if got := h2.Snapshot().P99; got != 1000 {
		t.Fatalf("+Inf bucket p99 = %v, want 1000 (observed max)", got)
	}
	empty := NewHistogram(nil).Snapshot()
	if empty.Count != 0 || empty.Mean != 0 || empty.Min != 0 {
		t.Fatalf("empty snapshot: %+v", empty)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared", L("cpu", "all")).Inc()
				r.Histogram("h", nil, L("cpu", "all")).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared", L("cpu", "all")).Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

// TestHistogramBucketBoundaries pins Prometheus bucket semantics for the
// exported latency histograms: bounds are inclusive upper edges, bucket
// lines are cumulative, and values above the top bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nf_latency_ns", []float64{1, 2, 4}, L("nf", "t"))
	h.Observe(1)   // exactly on a bound: le="1"
	h.Observe(1.5) // inside (1,2]: le="2"
	h.Observe(4)   // exactly on the top bound: le="4"
	h.Observe(5)   // above every bound: +Inf only
	text := r.Text()
	for _, want := range []string{
		`nf_latency_ns_bucket{nf="t",le="1"} 1`,
		`nf_latency_ns_bucket{nf="t",le="2"} 2`,
		`nf_latency_ns_bucket{nf="t",le="4"} 3`,
		`nf_latency_ns_bucket{nf="t",le="+Inf"} 4`,
		`nf_latency_ns_sum{nf="t"} 11.5`,
		`nf_latency_ns_count{nf="t"} 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 4})
	b := NewHistogram([]float64{1, 2, 4})
	a.Observe(0.5)
	a.Observe(3)
	b.Observe(8)
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 3 || s.Sum != 11.5 || s.Min != 0.5 || s.Max != 8 {
		t.Fatalf("merged snapshot: %+v", s)
	}
	// Merging an empty histogram must not disturb extrema.
	a.Merge(NewHistogram([]float64{1, 2, 4}))
	if s2 := a.Snapshot(); s2.Min != 0.5 || s2.Max != 8 {
		t.Fatalf("empty merge disturbed extrema: %+v", s2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched-bounds merge did not panic")
		}
	}()
	a.Merge(NewHistogram([]float64{1, 2}))
}

func TestRegistryMerge(t *testing.T) {
	static := NewRegistry()
	static.Counter("hits", L("nf", "a")).Add(3)
	static.SetHelp("hits", "hit count")
	static.Gauge("level").Set(2.5)
	static.Histogram("lat", []float64{1, 2}, L("nf", "a")).Observe(1)

	scrape := NewRegistry()
	scrape.Counter("hits", L("nf", "a")).Add(4)
	scrape.Counter("scrape_only").Inc()
	scrape.Merge(static)

	if got := scrape.Counter("hits", L("nf", "a")).Value(); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := scrape.Gauge("level").Value(); got != 2.5 {
		t.Fatalf("merged gauge = %g", got)
	}
	text := scrape.Text()
	for _, want := range []string{
		"# HELP hits hit count",
		`lat_count{nf="a"} 1`,
		"scrape_only 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, text)
		}
	}
	// Self-merge and nil-merge are no-ops.
	scrape.Merge(scrape)
	scrape.Merge(nil)
	if got := scrape.Counter("hits", L("nf", "a")).Value(); got != 7 {
		t.Fatalf("self-merge doubled counter: %d", got)
	}
}
