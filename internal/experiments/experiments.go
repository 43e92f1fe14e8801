// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the simulated substrate. Each experiment
// returns a Table that cmd/enetstl-bench prints and EXPERIMENTS.md
// records; bench_test.go exposes the same experiments as testing.B
// benchmarks.
//
// Absolute numbers are not comparable to the paper's testbed (the
// DESIGN.md substitution replaces a JIT-compiled kernel datapath with
// an interpreter); the reproduced quantity is the shape: which flavour
// wins, how gaps scale with configuration, and where each behaviour's
// cost lies.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Options tunes experiment workloads.
type Options struct {
	// Packets per throughput measurement (default 20000).
	Packets int
	// Trials per measurement (default 3).
	Trials int
	// Shards is the maximum RSS shard count the parallel scaling
	// experiment sweeps to (default 4; doubling steps from 1).
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Packets == 0 {
		o.Packets = 20000
	}
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	return o
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "survey: per-category feasibility and eBPF degradation", Table1},
		{"fig1", "shared-behaviour fraction of execution time", Fig1},
		{"table2", "component microbenchmarks (eNetSTL vs eBPF)", Table2},
		{"fig3a", "skip-list lookup vs load", Fig3a},
		{"fig3b", "skip-list update+delete (1:1) vs load", Fig3b},
		{"fig3c", "cuckoo switch vs load factor", Fig3c},
		{"fig3d", "NitroSketch vs update probability", Fig3d},
		{"fig3e", "count-min sketch vs hash functions", Fig3e},
		{"fig3f", "time wheel vs slot count", Fig3f},
		{"fig3g", "cuckoo filter vs load factor", Fig3g},
		{"fig3h", "Eiffel cFFS vs levels", Fig3h},
		{"fig3x", "other NFs: EDF, TSS, HeavyKeeper, VBF", Fig3x},
		{"fig4", "end-to-end latency under low load", Fig4},
		{"fig5", "per-packet processing time", Fig5},
		{"fig6", "low-level vs high-level interfaces", Fig6},
		{"fig7", "eNetSTL in real-world apps", Fig7},
		{"parallel", "RSS-sharded replay: aggregate throughput vs shard count", Parallel},
	}
}

func mpps(pps float64) string   { return fmt.Sprintf("%.3f", pps/1e6) }
func pct(x float64) string      { return fmt.Sprintf("%.1f%%", x*100) }
func ratio(a, b float64) string { return fmt.Sprintf("%.2fx", a/b) }
func gainPct(a, b float64) string {
	return fmt.Sprintf("%+.1f%%", (a/b-1)*100)
}
