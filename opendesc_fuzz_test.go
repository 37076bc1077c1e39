package opendesc

import (
	"bytes"
	"sync"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// fuzzSems is an intent every bundled NIC can serve (hardware or shim) and
// whose SoftNIC reference implementations exist for deep validation.
var fuzzSems = []string{"rss", "vlan", "pkt_len"}

type fuzzCompiled struct {
	res *core.Result
	val *codegen.Validator
	rt  *codegen.Runtime
}

var fuzzOnce sync.Once
var fuzzModels []fuzzCompiled

// fuzzCompile compiles the fuzz intent once per bundled NIC — fuzzing
// amortizes the compile, not the datapath under test.
func fuzzCompile(t *testing.T) []fuzzCompiled {
	fuzzOnce.Do(func() {
		for _, m := range nic.All() {
			intent, err := core.IntentFromSemantics("fuzz", semantics.Default,
				semantics.RSS, semantics.VLAN, semantics.PktLen)
			if err != nil {
				panic(err)
			}
			res, err := m.Compile(intent, core.CompileOptions{})
			if err != nil {
				panic(m.Name + ": " + err.Error())
			}
			val, err := codegen.NewValidator(res, codegen.ValidatorOptions{
				Deep:   true,
				Soft:   softnic.Funcs(),
				Consts: softnic.Consts(0),
			})
			if err != nil {
				panic(m.Name + ": " + err.Error())
			}
			fuzzModels = append(fuzzModels, fuzzCompiled{
				res: res,
				val: val,
				rt:  codegen.NewSoftRuntime(res, softnic.Funcs()),
			})
		}
	})
	return fuzzModels
}

// FuzzValidate feeds arbitrary completion records and arbitrary packet bytes
// through every bundled NIC's synthesized validator and soft runtime. The
// properties: no panic, no out-of-bounds access, short records are always
// rejected as ViolationShort, and a record that passes the deep Check also
// Conforms.
func FuzzValidate(f *testing.F) {
	n := len(fuzzCompile(nil))
	for i := 0; i < n; i++ {
		f.Add(uint8(i), []byte{}, []byte{})
		f.Add(uint8(i), make([]byte, 32), []byte("not a packet"))
		f.Add(uint8(i), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, make([]byte, 64))
	}
	f.Fuzz(func(t *testing.T, modelIdx uint8, rec, packet []byte) {
		if len(rec) > 1<<12 || len(packet) > 1<<12 {
			t.Skip()
		}
		m := fuzzCompile(t)[int(modelIdx)%len(fuzzModels)]
		viol := m.val.Check(rec, packet)
		if len(rec) < m.res.CompletionBytes() {
			if viol == nil || viol.Kind != codegen.ViolationShort {
				t.Fatalf("%s: short record (%d < %d) not rejected: %v",
					m.res.NIC, len(rec), m.res.CompletionBytes(), viol)
			}
		}
		conforms := m.val.Conforms(rec, packet)
		if viol == nil && !conforms {
			t.Fatalf("%s: record passed deep Check but does not Conform", m.res.NIC)
		}
		// The degraded-mode runtime must survive arbitrary packet bytes for
		// every semantic of the fuzz intent.
		for _, sem := range []semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen} {
			m.rt.Read(sem, rec, packet)
		}
	})
}

// FuzzPoll drives the full hardened driver — simulated device, fault
// injector, validator, watchdog, and with mask bit 7 the renegotiation
// control plane re-solving every other packet — with arbitrary packet bytes
// and an arbitrary fault mix on every bundled NIC. The properties: no panic,
// exactly-once delivery (every accepted packet is delivered exactly once
// after draining, no matter which faults fired), and every read equal to the
// golden oracle (rxpath.Want) — kv_key and payload_hash on every delivery,
// so their burst forms run under every fault mix.
func FuzzPoll(f *testing.F) {
	names := NICs()
	var burst []byte // four frames, long payloads and a key-value request
	for _, p := range [][]byte{
		pkt.NewBuilder().WithUDP(1, 2).WithPayload(bytes.Repeat([]byte{0xA5}, 300)).Build(),
		pkt.NewBuilder().WithVLAN(5).WithTCP(1, 2, 0).WithPayload(bytes.Repeat([]byte{7}, 129)).Build(),
		pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("get k\r\n")).Build(),
		pkt.NewBuilder().WithUDP(3, 4).WithPayload(bytes.Repeat([]byte{1, 2}, 100)).Build(),
	} {
		burst = append(append(burst, byte((len(p)-1)>>8), byte(len(p)-1)), p...)
	}
	for i := range names {
		f.Add(uint8(i), uint64(1), uint8(0), []byte("hello world, this is not a packet"))
		f.Add(uint8(i), uint64(7), uint8(0xFF), make([]byte, 256))
		f.Add(uint8(i), uint64(42), uint8(1<<6), []byte{8, 0, 1, 2, 3, 4, 5, 6, 7})
		f.Add(uint8(i), uint64(3)<<32|5, uint8(1), burst)
	}
	f.Fuzz(func(t *testing.T, modelIdx uint8, seed uint64, mask uint8, data []byte) {
		if len(data) > 1<<13 {
			t.Skip()
		}
		name := names[int(modelIdx)%len(names)]
		intent, err := NewIntent("fuzz", append(fuzzSems, "kv_key", "payload_hash")...)
		if err != nil {
			t.Fatal(err)
		}
		opts := OpenOptions{Harden: &HardenOptions{Deep: true, DegradeThreshold: 2}}
		if mask&(1<<7) != 0 {
			opts.Evolve = &EvolveOptions{Interval: 2, MinWindow: 1}
		}
		drv, err := OpenWith(name, intent, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan := faults.Plan{Seed: seed | 1}
		if mask&(1<<0) != 0 {
			plan.CorruptP = 0.5
		}
		if mask&(1<<1) != 0 {
			plan.TruncateP = 0.3
		}
		if mask&(1<<2) != 0 {
			plan.ReplayP = 0.3
		}
		if mask&(1<<3) != 0 {
			plan.DuplicateP = 0.3
		}
		if mask&(1<<4) != 0 {
			plan.DropP = 0.3
		}
		if mask&(1<<5) != 0 {
			plan.NAKP = 0.5
		}
		if mask&(1<<6) != 0 {
			plan.HangCount, plan.HangMTBF, plan.HangBurst = 1, 5, 3
		}
		drv.InjectFaults(faults.New(plan))

		accepted, delivered := 0, 0
		h := func(p []byte, meta Meta) {
			delivered++
			// Reading a prefix that depends on the packet moves the mix under
			// an evolving driver.
			for _, s := range append(fuzzSems[:1+len(p)%len(fuzzSems):1+len(p)%len(fuzzSems)], "kv_key", "payload_hash") {
				v, ok := meta.Get(s)
				if want, wok := rxpath.Want(meta, s); !ok || !wok || v != want {
					t.Fatalf("%s: %s = %#x/%v, want %#x/%v (packet %x)", name, s, v, ok, want, wok, p)
				}
			}
		}
		// Up to eight frames, each behind a two-byte length, polled after
		// every first to fourth Rx so the pending queue holds bursts.
		every := 1 + int(seed>>32)%4
		for i := 0; i < 8 && len(data) > 2; i++ {
			n := min(len(data)-2, 1+(int(data[0])<<8|int(data[1]))%1518)
			if drv.Rx(data[2 : 2+n]) {
				accepted++
			}
			data = data[2+n:]
			if (i+1)%every == 0 {
				drv.Poll(h)
			}
		}
		// Drain: while degraded each Poll also ticks the watchdog, so a
		// bounded number of idle polls completes any pending recovery.
		idle := 0
		for i := 0; i < 5000 && idle < 3; i++ {
			if drv.Poll(h) == 0 {
				idle++
			} else {
				idle = 0
			}
		}
		if delivered != accepted {
			t.Fatalf("%s: delivered %d of %d accepted packets (stats %+v)",
				name, delivered, accepted, drv.Hardening())
		}
	})
}
