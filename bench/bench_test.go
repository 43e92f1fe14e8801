package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is the program's own declarations, and
// those stay inside the contract's limits.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadNames {
		check(w)
		if why := workloadWhy[w]; why == "" || len(why) > 200 || bytes.ContainsRune([]byte(why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w, len(why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// Every workload, end to end and traced, at minimal size: the oracle and
// accounting checks pass and every declared metric is reported.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(config{workload: w, seed: 3, seconds: 0.05, trace: trace, quick: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, res.Failed, res.Attempted, res.failures)
			}
			declared := endToEnd
			if trace {
				declared = perLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", w, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w, m.Name, v.Value)
				}
			}
		}
	}
}

// Counts made by the program repeat exactly for a given seed, and the
// attack workload does shed.
func TestExactCountsRepeat(t *testing.T) {
	var runs [2]result
	for i := range runs {
		var err error
		runs[i], err = runWorkload(config{workload: "conntrack_attack", seed: 5, seconds: 0.05, trace: true, quick: true}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"vm.insns_per_pkt", "guard.shed_ratio", "guard.http_429_ratio"} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", name, a, b)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Nested: root 100 > mid 60 > leaf 25, plus a second child of root.
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mid", Start: 0, End: 60},
		{ID: 3, Parent: 2, Name: "leaf", Start: 0, End: 25},
		{ID: 4, Parent: 1, Name: "sib", Start: 60, End: 70},
		// Zero children: all of it is self time.
		{ID: 5, Parent: 0, Name: "root", Start: 200, End: 230},
	}
	self, over := selfTimes(spans)
	want := map[string]int64{"root": 30 + 30, "mid": 35, "leaf": 25, "sib": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if len(over) != 0 {
		t.Errorf("over = %v, want none", over)
	}
	if residual, worst := accounting(spans); residual != 0 || worst != "" {
		t.Errorf("accounting = %v, %q, want 0 and no culprit", residual, worst)
	}

	// One span's children outlasting it cancels within the name...
	spans = append(spans,
		span{ID: 6, Parent: 0, Name: "root", Start: 300, End: 310},
		span{ID: 7, Parent: 6, Name: "mid", Start: 300, End: 323})
	self, over = selfTimes(spans)
	if self["root"] != 60-13 || len(over) != 0 {
		t.Errorf("single overrun: self[root] = %d over = %v, want 47 and none", self["root"], over)
	}
	// ...but children that outlast a name in total are time attributed
	// twice: self clamps to 0 and the excess is the accounting residual,
	// reported under the overrun name.
	spans = append(spans, span{ID: 8, Parent: 6, Name: "sib", Start: 323, End: 383})
	self, over = selfTimes(spans)
	if self["root"] != 0 || over["root"] != 13 {
		t.Errorf("overrun: self[root] = %d over[root] = %d, want 0 and 13", self["root"], over["root"])
	}
	residual, worst := accounting(spans)
	if want := 13.0 / 140.0; residual != want || worst != "root" {
		t.Errorf("accounting = %v, %q, want %v under root", residual, worst, want)
	}
}
