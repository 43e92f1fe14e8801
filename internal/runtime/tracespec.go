package runtime

import (
	"encoding/base64"
	"fmt"
	"slices"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// TraceSpec is the serializable packet-source description shared by
// the daemon's ingestion API and the CLIs' trace flags: either a
// seeded generator spec (benign or adversarial scenario) or a raw
// base64 packet list. The same spec always builds the same trace, so a
// JSON request and a flag set replay bit-identical streams.
type TraceSpec struct {
	Flows   int     `json:"flows,omitempty"`
	Packets int     `json:"packets,omitempty"`
	Zipf    float64 `json:"zipf,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Scenario selects an adversarial generator (syn-flood | churn |
	// hash-collision); empty means the benign zipf generator.
	Scenario string `json:"scenario,omitempty"`
	// Raw replays these base64-encoded PktSize-byte packets verbatim
	// instead of generating; the other fields are ignored.
	Raw []string `json:"raw,omitempty"`
}

func (s TraceSpec) norm() TraceSpec {
	if s.Flows <= 0 {
		s.Flows = 256
	}
	if s.Packets <= 0 {
		s.Packets = 2000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Build materializes the trace. Its arrays are recycled ones
// (pktgen.Trace.Release): the caller owns the trace, and either
// releases it once nothing holds one of its slices or lets it go.
func (s TraceSpec) Build() (*pktgen.Trace, error) {
	if len(s.Raw) > 0 {
		if err := checkLimit("trace.raw", len(s.Raw), MaxTracePackets); err != nil {
			return nil, err
		}
		// Recycled packets: each is overwritten in full below.
		tr := pktgen.NewTrace(len(s.Raw))
		// One scratch for every packet: the canonical encoding of PktSize
		// bytes is 88 characters, which DecodedLen rounds up to PktSize+2.
		var scratch [nf.PktSize + 2]byte
		for i, enc := range s.Raw {
			b := scratch[:]
			if n := base64.StdEncoding.DecodedLen(len(enc)); n > len(b) {
				// Longer than a packet's encoding: either over-long or
				// padded out with the newlines the decoder skips. Decode it
				// in full so the error reports the true length.
				b = make([]byte, n)
			}
			n, err := base64.StdEncoding.Decode(b, []byte(enc))
			if err != nil {
				return nil, fmt.Errorf("runtime: raw packet %d: %w", i, err)
			}
			if n != nf.PktSize {
				return nil, fmt.Errorf("runtime: raw packet %d is %d bytes, want %d", i, n, nf.PktSize)
			}
			copy(tr.Packets[i][:], b)
		}
		return tr, nil
	}
	s, err := s.sized()
	if err != nil {
		return nil, err
	}
	cfg := pktgen.Config{Flows: s.Flows, Packets: s.Packets, ZipfS: s.Zipf, Seed: s.Seed}
	if s.Scenario == "" {
		return pktgen.Generate(cfg), nil
	}
	kind, ok := pktgen.ScenarioFromString(s.Scenario)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown scenario %q (syn-flood|churn|hash-collision)", s.Scenario)
	}
	return pktgen.GenerateAttack(pktgen.AttackConfig{Base: cfg, Kind: kind}), nil
}

// sized applies the generator defaults and holds the sizes to their
// ceilings, before anything is generated.
func (s TraceSpec) sized() (TraceSpec, error) {
	s = s.norm()
	if err := checkLimit("trace.flows", s.Flows, MaxTraceFlows); err != nil {
		return s, err
	}
	return s, checkLimit("trace.packets", s.Packets, MaxTracePackets)
}

// FlowTableKey names a benign spec's flow table: its flows and seed
// after normalisation and the ceiling checks, the only inputs
// pktgen.FlowTable reads. Benign specs with one key have one table.
type FlowTableKey struct {
	Flows int
	Seed  int64
}

// FlowTableKey returns the key of s's flow table, refusing exactly what
// Build refuses for a benign spec. benign is false, and nothing is
// checked, for a scenario or raw spec: its flows are born with its
// packets, so no key names them.
func (s TraceSpec) FlowTableKey() (k FlowTableKey, benign bool, err error) {
	if len(s.Raw) > 0 || s.Scenario != "" {
		return FlowTableKey{}, false, nil
	}
	s, err = s.sized()
	if err != nil {
		return FlowTableKey{}, false, err
	}
	return FlowTableKey{Flows: s.Flows, Seed: s.Seed}, true, nil
}

// FlowTable returns the flow table Build's trace would carry, for a
// caller that keeps the keys and not the packets (a module's seed). It
// refuses exactly what Build refuses. A benign spec's packets and zipf
// are validated but never generated: its keys depend on its
// FlowTableKey alone. A scenario's flows are born with its packets and
// a raw spec is validated by decoding it, so those two are built and
// released. The table is fresh: the caller owns it.
func (s TraceSpec) FlowTable() ([][nf.KeyLen]byte, error) {
	k, benign, err := s.FlowTableKey()
	if err != nil {
		return nil, err
	}
	if benign {
		return pktgen.FlowTable(k.Flows, k.Seed), nil
	}
	tr, err := s.Build()
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	return slices.Clone(tr.FlowKeys), nil
}
