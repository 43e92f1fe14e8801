package runtime_test

// Quotas end to end: options applied to a built catalog instance
// through nfcatalog.Open (and BuildWith, its one-instance form). An external test
// package, because nfcatalog imports runtime.

import (
	"errors"
	"testing"

	"enetstl/internal/difftest"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

func seedTrace() *pktgen.Trace {
	return pktgen.Generate(pktgen.Config{Flows: 64, Packets: 200, ZipfS: 1.1, Seed: 3})
}

// TestUnderMapBytesQuota: an instance under a map_bytes quota is held
// to the measured footprint of the maps it was built with — exactly:
// a quota equal to the footprint admits it, one byte less refuses it.
func TestUnderMapBytesQuota(t *testing.T) {
	for _, c := range []struct {
		name   string
		flavor nf.Flavor
	}{
		{"conntrack", nf.Kernel}, // map owned by the native, no VM
		{"conntrack", nf.EBPF},   // same table, reached through the VM
		{"cmsketch", nf.ENetSTL},
		{"nitrosketch", nf.ENetSTL}, // two maps on one VM
	} {
		b, err := nfcatalog.BuildWith(runtime.Options{}, c.name, c.flavor, seedTrace())
		if err != nil {
			t.Fatalf("%s/%v: %v", c.name, c.flavor, err)
		}
		used := runtime.MapBytes(runtime.Maps(b.Inst))
		if used == 0 {
			t.Fatalf("%s/%v: no map bytes measured", c.name, c.flavor)
		}
		fits := runtime.Options{Quota: &runtime.Quota{MapBytes: used}}
		if _, err := nfcatalog.BuildWith(fits, c.name, c.flavor, seedTrace()); err != nil {
			t.Fatalf("%s/%v: quota == footprint (%d) refused: %v", c.name, c.flavor, used, err)
		}
		tight := runtime.Options{Quota: &runtime.Quota{MapBytes: used - 1}}
		if _, err := nfcatalog.BuildWith(tight, c.name, c.flavor, seedTrace()); !errors.Is(err, runtime.ErrQuota) {
			t.Fatalf("%s/%v: quota %d < footprint %d: err = %v, want ErrQuota", c.name, c.flavor, used-1, used, err)
		}
	}
	// The two conntrack flavours hold the same table and must meter alike.
	k, _ := nfcatalog.BuildWith(runtime.Options{}, "conntrack", nf.Kernel, seedTrace())
	e, _ := nfcatalog.BuildWith(runtime.Options{}, "conntrack", nf.EBPF, seedTrace())
	if kb, eb := runtime.MapBytes(runtime.Maps(k.Inst)), runtime.MapBytes(runtime.Maps(e.Inst)); kb != eb {
		t.Fatalf("conntrack table metered differently: kernel %d, ebpf %d", kb, eb)
	}
}

// TestUnderRPoolQuota: an instance under an rpool_cap quota below the
// pool it draws is refused with ErrQuota — never a panic — in every
// flavour that draws one; the eBPF flavour draws none and builds.
func TestUnderRPoolQuota(t *testing.T) {
	for _, name := range []string{"heavykeeper", "nitrosketch"} {
		for _, flavor := range difftest.SupportedFlavors(name) {
			need := nfcatalog.PoolCap(name, flavor)
			if (need == 0) != (flavor == nf.EBPF) {
				t.Fatalf("%s/%v: PoolCap = %d", name, flavor, need)
			}
			tight := runtime.Options{Quota: &runtime.Quota{RPoolCap: 8}}
			_, err := nfcatalog.BuildWith(tight, name, flavor, seedTrace())
			if need > 8 && !errors.Is(err, runtime.ErrQuota) {
				t.Fatalf("%s/%v under rpool_cap 8: err = %v, want ErrQuota", name, flavor, err)
			}
			if need == 0 && err != nil {
				t.Fatalf("%s/%v draws no pool but was refused: %v", name, flavor, err)
			}
			fits := runtime.Options{Quota: &runtime.Quota{RPoolCap: 4096}}
			if _, err := nfcatalog.BuildWith(fits, name, flavor, seedTrace()); err != nil {
				t.Fatalf("%s/%v under rpool_cap 4096 refused: %v", name, flavor, err)
			}
		}
	}
	// An NF that draws no pool is indifferent to the ceiling.
	if _, err := nfcatalog.BuildWith(runtime.Options{Quota: &runtime.Quota{RPoolCap: 1}},
		"cmsketch", nf.Kernel, seedTrace()); err != nil {
		t.Fatalf("cmsketch under rpool_cap 1 refused: %v", err)
	}
}

// TestShardedPerCPUMeteredOnce: a sharded module's shared per-CPU map
// is reachable from the wiring and, for VM flavours, again copy by copy
// from each shard's VM. It must count once, and a Kernel-flavour sketch
// (whose shards write their copy without a VM) must still be charged.
func TestShardedPerCPUMeteredOnce(t *testing.T) {
	const shards = 4
	for _, c := range []struct {
		name   string
		flavor nf.Flavor
	}{
		{"conntrack", nf.Kernel}, {"conntrack", nf.EBPF},
		{"cmsketch", nf.Kernel}, {"cmsketch", nf.EBPF},
	} {
		o := runtime.Options{Shards: shards, PerCPU: true}
		_, sh, err := nfcatalog.Open(o, c.name, c.flavor, seedTrace())
		if err != nil {
			t.Fatal(err)
		}
		shared := runtime.MapBytes(sh.PerCPUCopies())
		o.Quota = &runtime.Quota{MapBytes: shared}
		if _, _, err := nfcatalog.Open(o, c.name, c.flavor, seedTrace()); err != nil {
			t.Fatalf("%s/%v: quota == shared map (%d bytes) refused — copies double-counted? %v",
				c.name, c.flavor, shared, err)
		}
		o.Quota = &runtime.Quota{MapBytes: shared - 1}
		if _, _, err := nfcatalog.Open(o, c.name, c.flavor, seedTrace()); !errors.Is(err, runtime.ErrQuota) {
			t.Fatalf("%s/%v: quota below the shared map admitted: %v", c.name, c.flavor, err)
		}
	}
}

// TestBuildWithPinsTier: the tier is a property of the finished
// instance — BuildWith sets it on the instance's VMs and nowhere else.
func TestBuildWithPinsTier(t *testing.T) {
	for _, tier := range []string{"wire", "predecoded", "jit"} {
		b, err := nfcatalog.BuildWith(runtime.Options{Tier: tier}, "cmsketch", nf.EBPF, seedTrace())
		if err != nil {
			t.Fatal(err)
		}
		vms := runtime.VMs(b.Inst)
		if len(vms) == 0 {
			t.Fatal("cmsketch/ebpf has no VM")
		}
		for _, m := range vms {
			if got := m.Tier().String(); got != tier {
				t.Fatalf("BuildWith(tier=%s): VM on %s", tier, got)
			}
		}
	}
	if got := vm.New().Tier(); got != vm.TierPredecoded {
		t.Fatalf("a VM created after BuildWith starts on %s", got)
	}
}
