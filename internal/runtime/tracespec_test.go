package runtime

import (
	"encoding/base64"
	"errors"
	"testing"

	"enetstl/internal/nf"
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
