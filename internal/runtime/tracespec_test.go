package runtime

import (
	"encoding/base64"
	"errors"
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

func rawPackets(n, size int) []string {
	raw := make([]string, n)
	pkt := make([]byte, size)
	for i := range raw {
		for j := range pkt {
			pkt[j] = byte(i + j)
		}
		raw[i] = base64.StdEncoding.EncodeToString(pkt)
	}
	return raw
}

func TestRawBuildRoundTrip(t *testing.T) {
	raw := rawPackets(256, nf.PktSize)
	// The decoder skips newlines, so an encoding padded with them is
	// longer than 88 characters and still one 64-byte packet.
	raw[7] = raw[7][:40] + "\r\n" + raw[7][40:] + "\n\n\n\n"
	tr, err := TraceSpec{Raw: raw}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != len(raw) {
		t.Fatalf("built %d packets, want %d", len(tr.Packets), len(raw))
	}
	for i := range tr.Packets {
		for j, b := range tr.Packets[i] {
			if b != byte(i+j) {
				t.Fatalf("packet %d byte %d is %#x, want %#x", i, j, b, byte(i+j))
			}
		}
	}
}

func TestRawBuildErrors(t *testing.T) {
	good := rawPackets(3, nf.PktSize)
	cases := []struct {
		name, enc, want string
	}{
		{"bad base64", good[0][:10] + "!" + good[0][11:], "runtime: raw packet 2: illegal base64 data at input byte 10"},
		{"bad base64 past a packet's length", good[0] + "!!!!", "runtime: raw packet 2: illegal base64 data at input byte 88"},
		{"short", rawPackets(1, nf.PktSize-1)[0], "runtime: raw packet 2 is 63 bytes, want 64"},
		{"one over", rawPackets(1, nf.PktSize+1)[0], "runtime: raw packet 2 is 65 bytes, want 64"},
		{"far over", rawPackets(1, 1000)[0], "runtime: raw packet 2 is 1000 bytes, want 64"},
		{"empty", "", "runtime: raw packet 2 is 0 bytes, want 64"},
	}
	for _, c := range cases {
		_, err := TraceSpec{Raw: []string{good[1], good[2], c.enc}}.Build()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestRawBuildAllocs pins the raw ingest path at the allocations its
// result needs: the Trace alone when the caller releases its batches
// (the packet array is recycled), and the Trace, a fresh array set and
// its packet array when, like the bench twin, it never does. Decoding
// goes through one stack scratch, not a heap slice per packet.
func TestRawBuildAllocs(t *testing.T) {
	spec := TraceSpec{Raw: rawPackets(256, nf.PktSize)}
	for _, c := range []struct {
		name    string
		release bool
		max     float64
	}{{"released", true, 1}, {"never released", false, 3}} {
		allocs := testing.AllocsPerRun(20, func() {
			tr, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if c.release {
				tr.Release()
			}
		})
		if allocs > c.max {
			t.Errorf("%s: 256-packet raw build made %.0f allocations, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// TestFlowTableRefusesAsBuild: FlowTable refuses exactly the specs
// Build refuses, with the same error, so a create and a batch carrying
// the same spec meet the same answer.
func TestFlowTableRefusesAsBuild(t *testing.T) {
	good := rawPackets(2, nf.PktSize)
	for _, tc := range []struct {
		name string
		spec TraceSpec
	}{
		{"flows over the ceiling", TraceSpec{Flows: MaxTraceFlows + 1}},
		{"packets over the ceiling", TraceSpec{Flows: 16, Packets: MaxTracePackets + 1}},
		{"both over: flows is named", TraceSpec{Flows: MaxTraceFlows + 1, Packets: MaxTracePackets + 1}},
		{"packets over the ceiling with a scenario", TraceSpec{Flows: 16, Packets: MaxTracePackets + 1, Scenario: "churn"}},
		{"raw over the ceiling", TraceSpec{Raw: make([]string, MaxTracePackets+1)}},
		{"unknown scenario", TraceSpec{Flows: 16, Packets: 50, Scenario: "nosuch"}},
		{"bad base64", TraceSpec{Raw: []string{good[0], "!!!!"}}},
		{"63-byte raw packet", TraceSpec{Raw: []string{good[0], rawPackets(1, nf.PktSize-1)[0]}}},
	} {
		_, buildErr := tc.spec.Build()
		_, tableErr := tc.spec.FlowTable()
		if buildErr == nil || tableErr == nil || buildErr.Error() != tableErr.Error() {
			t.Errorf("%s: Build says %v, FlowTable says %v; want the same refusal", tc.name, buildErr, tableErr)
			continue
		}
		var bl, tl *LimitError
		if errors.As(buildErr, &bl) != errors.As(tableErr, &tl) || (bl != nil && *bl != *tl) {
			t.Errorf("%s: Build's LimitError %+v, FlowTable's %+v", tc.name, bl, tl)
		}
	}
}

// TestFlowTableEqualsBuild: the table FlowTable returns is the FlowKeys
// of the trace Build generates, whatever the packet count and skew, for
// benign specs (never generated) and scenarios (generated and released)
// alike; a raw spec has none.
func TestFlowTableEqualsBuild(t *testing.T) {
	check := func(spec TraceSpec) {
		t.Helper()
		tr, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.FlowTable()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tr.FlowKeys) {
			t.Fatalf("%+v: %d keys, Build has %d", spec, len(got), len(tr.FlowKeys))
		}
		for i := range got {
			if got[i] != tr.FlowKeys[i] {
				t.Fatalf("%+v: key %d is %x, Build has %x", spec, i, got[i], tr.FlowKeys[i])
			}
		}
	}
	for _, flows := range []int{1, 64, 1024, 4096, 0} {
		for _, seed := range []int64{0, 1, 7, 1001} {
			for _, zipf := range []float64{0, 1.1} {
				for _, packets := range []int{0, 300} {
					check(TraceSpec{Flows: flows, Packets: packets, Zipf: zipf, Seed: seed})
				}
			}
		}
	}
	for _, k := range pktgen.Scenarios() {
		check(TraceSpec{Flows: 64, Packets: 2000, Zipf: 1.1, Seed: 3, Scenario: k.String()})
	}
	check(TraceSpec{Raw: rawPackets(3, nf.PktSize)})
}

// TestFlowTableAllocs: a benign spec's table costs the table and its
// generator, not a trace — nothing is drawn from pktgen's array pool —
// and a scenario's table releases the trace it was built from, so it
// costs what a released Build does plus the copy of the keys.
func TestFlowTableAllocs(t *testing.T) {
	benign := TraceSpec{Flows: 1024, Seed: 1001}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := benign.FlowTable(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("benign flow table: %.0f allocations, want <= 3 (table, source, rand)", allocs)
	}
	scenario := TraceSpec{Flows: 64, Packets: 2000, Seed: 3, Scenario: "syn-flood"}
	released := testing.AllocsPerRun(100, func() {
		tr, err := scenario.Build()
		if err != nil {
			t.Fatal(err)
		}
		tr.Release()
	})
	table := testing.AllocsPerRun(100, func() {
		if _, err := scenario.FlowTable(); err != nil {
			t.Fatal(err)
		}
	})
	// +1 for the copy, +2 for the array sets sync.Pool drops at random
	// under the race detector; a trace never released costs 6 more.
	if table > released+3 {
		t.Errorf("scenario flow table: %.0f allocations against %.0f for a released build: the trace was not released", table, released)
	}
}

// TestBuildCeilings: a spec asking for more flows or packets than the
// fixed ceilings is refused with a LimitError naming the field before
// anything is generated; a spec at the ceilings builds.
func TestBuildCeilings(t *testing.T) {
	for _, tc := range []struct {
		spec  TraceSpec
		field string
		max   int
	}{
		{TraceSpec{Flows: MaxTraceFlows + 1, Packets: 1}, "trace.flows", MaxTraceFlows},
		{TraceSpec{Flows: 1, Packets: MaxTracePackets + 1}, "trace.packets", MaxTracePackets},
		{TraceSpec{Flows: 1, Packets: MaxTracePackets + 1, Scenario: "churn"}, "trace.packets", MaxTracePackets},
		{TraceSpec{Raw: make([]string, MaxTracePackets+1)}, "trace.raw", MaxTracePackets},
	} {
		_, err := tc.spec.Build()
		var lim *LimitError
		if !errors.As(err, &lim) || lim.Field != tc.field || lim.Got != tc.max+1 || lim.Max != tc.max {
			t.Errorf("%s over its ceiling: error %v, want a LimitError for %d > %d", tc.field, err, tc.max+1, tc.max)
		}
	}
	tr, err := TraceSpec{Flows: MaxTraceFlows, Packets: MaxTracePackets}.Build()
	if err != nil || len(tr.Packets) != MaxTracePackets || len(tr.FlowKeys) != MaxTraceFlows {
		t.Fatalf("spec at the ceilings: %v", err)
	}
}
