package opendesc

import (
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// resolverIntents are the four intents of the benchmark's compile_open grid.
var resolverIntents = [][]string{
	{"rss"},
	{"rss", "vlan", "pkt_len"},
	{"ip_checksum", "vlan", "rss", "kv_key"},
	{"rss", "vlan", "pkt_len", "ip_checksum", "l4_checksum", "ptype", "flow_id", "l4_dst_port"},
}

// resolverProbes are the names a resolver must get right for a result: every
// registered semantic (inside the intent and outside it), the empty string,
// and names that share their length or a prefix with a compiled one.
func resolverProbes(res *core.Result) []string {
	probes := append([]string{""}, Semantics()...)
	for _, a := range res.Accessors {
		s := string(a.Semantic)
		probes = append(probes, s[:len(s)-1], s+"_", s[:len(s)-1]+"\x00", "_"+s[1:])
	}
	return probes
}

// accessorOracle resolves names the way the runtime did before the reader
// table — through a map keyed by semantic — straight from the compilation
// result, so nothing of the table is trusted.
type accessorOracle struct {
	byName map[semantics.Name]core.Accessor
	soft   map[semantics.Name]codegen.SoftFunc
}

func newAccessorOracle(res *core.Result) accessorOracle {
	o := accessorOracle{byName: map[semantics.Name]core.Accessor{}, soft: softnic.Funcs()}
	for _, a := range res.Accessors {
		o.byName[a.Semantic] = a
	}
	return o
}

// resolve returns whether name is readable and whether it is read from the
// completion record.
func (o accessorOracle) resolve(name string) (ok, hardware bool) {
	a, in := o.byName[semantics.Name(name)]
	if !in || !a.Hardware && o.soft[a.Semantic] == nil {
		return false, false
	}
	return true, a.Hardware
}

func TestMetaResolvesLikeMapOracle(t *testing.T) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	for _, nicName := range NICs() {
		for _, sems := range resolverIntents {
			drv, err := Open(nicName, sems...)
			if err != nil {
				t.Fatalf("%s %v: %v", nicName, sems, err)
			}
			oracle := newAccessorOracle(drv.Result)
			ref := codegen.NewRuntime(drv.Result, softnic.Funcs())
			if !drv.Rx(tr.Packets[0]) {
				t.Fatalf("%s %v: rx refused", nicName, sems)
			}
			n := drv.Poll(func(p []byte, m Meta) {
				for _, name := range resolverProbes(drv.Result) {
					wantOK, wantHW := oracle.resolve(name)
					v, ok := m.Get(name)
					if ok != wantOK {
						t.Errorf("%s %v: Get(%q) ok = %v, oracle %v", nicName, sems, name, ok, wantOK)
					}
					if hw := m.Hardware(name); hw != wantHW {
						t.Errorf("%s %v: Hardware(%q) = %v, oracle %v", nicName, sems, name, hw, wantHW)
					}
					if ok && wantOK {
						if want, err := ref.Read(semantics.Name(name), rxpath.Of(m).Rec, p); err != nil || v != want {
							t.Errorf("%s %v: Get(%q) = %#x, reference runtime %#x (%v)", nicName, sems, name, v, want, err)
						}
					}
				}
			})
			if n != 1 {
				t.Fatalf("%s %v: polled %d packets", nicName, sems, n)
			}
		}
	}
}

func TestDeliveryResolvesLikeMapOracle(t *testing.T) {
	ztr, err := workload.GenerateZipf(workload.ZipfSpec{Packets: 64, Flows: 256, Skew: 1.1, Tenants: len(resolverIntents), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, nicName := range NICs() {
		specs := make([]TenantSpec, len(resolverIntents))
		for i, sems := range resolverIntents {
			specs[i] = TenantSpec{Name: string(rune('a' + i)), Semantics: sems}
		}
		plane, err := OpenTenants(TenantOptions{NIC: nicName, Cores: 1}, specs...)
		if err != nil {
			t.Fatalf("%s: %v", nicName, err)
		}
		seen := make([]bool, len(specs))
		for _, p := range ztr.Packets {
			if !plane.Rx(p) {
				t.Fatalf("%s: rx refused", nicName)
			}
		}
		plane.Drain(func(d TenantDelivery) {
			if seen[d.Tenant] {
				return
			}
			seen[d.Tenant] = true
			res := plane.Joint().PerTenant[d.Tenant]
			oracle := newAccessorOracle(res)
			for _, name := range resolverProbes(res) {
				wantOK, wantHW := oracle.resolve(name)
				v, ok := d.Get(name)
				if ok != wantOK {
					t.Errorf("%s tenant %s: Get(%q) ok = %v, oracle %v", nicName, d.Name, name, ok, wantOK)
				}
				if hw := d.Hardware(name); hw != wantHW {
					t.Errorf("%s tenant %s: Hardware(%q) = %v, oracle %v", nicName, d.Name, name, hw, wantHW)
				}
				// Want resolves like Get and expects what the read returned,
				// truncated to a hardware field's width.
				if want, wok := d.Want(name); wok != wantOK || ok && v != want {
					t.Errorf("%s tenant %s: Want(%q) = %#x/%v, read %#x/%v", nicName, d.Name, name, want, wok, v, ok)
				}
			}
		})
		for i, ok := range seen {
			if !ok {
				t.Errorf("%s: tenant %d never delivered", nicName, i)
			}
		}
	}
}
