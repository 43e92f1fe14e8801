// Package telemetry is a dependency-free metrics layer for the eNetSTL
// reproduction: counters, gauges, and fixed-bucket histograms organised
// into labelled metric families, plus a Prometheus-style text exposition
// writer. It is the in-VM analogue of the kernel's bpf_stats plumbing —
// the VM, the BPF maps, and the benchmark harness all publish into it,
// and `nfrun -stats` dumps it after a run.
//
// All metric types are safe for concurrent use (per-CPU VMs run on
// separate goroutines); the hot-path operations are a single atomic
// add. Construction and exposition take the registry lock.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Kind discriminates the metric types a family can hold.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry holds metric families keyed by name. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels into a canonical series key (sorted by label
// key so registration order does not split series).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *Registry) getSeries(name string, kind Kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	ls := sortLabels(labels)
	key := labelKey(ls)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns (creating if needed) the counter series for
// name+labels. Requesting an existing name with a different kind panics.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.getSeries(name, KindCounter, labels).c
}

// Gauge returns (creating if needed) the gauge series for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.getSeries(name, KindGauge, labels).g
}

// Histogram returns (creating if needed) the histogram series for
// name+labels. bounds applies only on first creation of the series; nil
// selects DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	s := r.getSeries(name, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// MergeHistogram folds src's observations into the named histogram
// series, creating it with src's bucket bounds when absent. This is how
// harness latency histograms become nf_latency_ns series.
func (r *Registry) MergeHistogram(name string, src *Histogram, labels ...Label) {
	if src == nil {
		return
	}
	bounds, _, _, _ := src.buckets()
	r.Histogram(name, bounds, labels...).Merge(src)
}

// Merge folds every series of src into r: counters add, gauges take
// src's current value, histograms merge observation-wise, and help
// strings fill in where r has none. nfd's /metrics uses it to combine
// the modules' per-scrape series with the daemon's long-lived counters
// without emitting duplicate families.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	type entry struct {
		name   string
		help   string
		kind   Kind
		labels []Label
		c      uint64
		g      float64
		h      *Histogram
	}
	src.mu.Lock()
	var entries []entry
	for _, f := range src.families {
		for _, s := range f.series {
			e := entry{name: f.name, help: f.help, kind: f.kind, labels: s.labels}
			switch f.kind {
			case KindCounter:
				e.c = s.c.Value()
			case KindGauge:
				e.g = s.g.Value()
			case KindHistogram:
				e.h = s.h
			}
			entries = append(entries, e)
		}
	}
	src.mu.Unlock()
	for _, e := range entries {
		switch e.kind {
		case KindCounter:
			r.Counter(e.name, e.labels...).Add(e.c)
		case KindGauge:
			r.Gauge(e.name, e.labels...).Set(e.g)
		case KindHistogram:
			r.MergeHistogram(e.name, e.h, e.labels...)
		}
		if e.help != "" {
			r.SetHelp(e.name, e.help)
		}
	}
}

// SetHelp attaches a `# HELP` line to the family (created lazily if the
// family does not exist yet the help is kept until it does).
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	}
}

// formatValue renders a sample value: integral values without exponent,
// the rest in %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func sampleLine(sb *strings.Builder, name, labels string, value string) {
	sb.WriteString(name)
	if labels != "" {
		sb.WriteByte('{')
		sb.WriteString(labels)
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
}

// WriteText writes the whole registry in Prometheus text exposition
// format: families sorted by name, series sorted by label signature, so
// output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, r.Text())
	return err
}

// Text renders the exposition text (see WriteText).
func (r *Registry) Text() string {
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case KindCounter:
				sampleLine(&sb, f.name, k, fmt.Sprintf("%d", s.c.Value()))
			case KindGauge:
				sampleLine(&sb, f.name, k, formatValue(s.g.Value()))
			case KindHistogram:
				writeHistogram(&sb, f.name, k, s.h)
			}
		}
	}
	return sb.String()
}

func writeHistogram(sb *strings.Builder, name, labels string, h *Histogram) {
	if h == nil {
		return
	}
	bounds, counts, count, sum := h.buckets()
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		le := labelKey([]Label{{Key: "le", Value: formatValue(b)}})
		if labels != "" {
			le = labels + "," + le
		}
		sampleLine(sb, name+"_bucket", le, fmt.Sprintf("%d", cum))
	}
	le := labelKey([]Label{{Key: "le", Value: "+Inf"}})
	if labels != "" {
		le = labels + "," + le
	}
	sampleLine(sb, name+"_bucket", le, fmt.Sprintf("%d", count))
	sampleLine(sb, name+"_sum", labels, formatValue(sum))
	sampleLine(sb, name+"_count", labels, fmt.Sprintf("%d", count))
}
