package opendesc

import (
	"math"
	"strings"
	"testing"

	"opendesc/internal/nicsim"
	"opendesc/internal/pkt"
	"opendesc/internal/softnic"
)

func TestNICsAndSemantics(t *testing.T) {
	nics := NICs()
	if len(nics) != 6 {
		t.Fatalf("nics = %v", nics)
	}
	sems := Semantics()
	if len(sems) < 20 {
		t.Errorf("semantics universe = %d entries", len(sems))
	}
	found := false
	for _, s := range sems {
		if s == "rss" {
			found = true
		}
	}
	if !found {
		t.Error("rss missing from universe")
	}
}

func TestCompilePublicAPI(t *testing.T) {
	intent, err := NewIntent("app", "rss", "ip_checksum")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile("e1000e", intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 6 invariant holds through the public surface.
	if got := res.Missing(); len(got) != 1 || string(got[0]) != "rss" {
		t.Errorf("missing = %v", got)
	}
	if !strings.Contains(GenerateGo(res, "acc"), "func IpChecksum") {
		t.Error("GenerateGo lost the hardware accessor")
	}
	if !strings.Contains(GenerateC(res, "e1000e"), "e1000e_get_ip_checksum") {
		t.Error("GenerateC lost the accessor")
	}
	if !strings.Contains(GenerateEBPF(res), "opendesc_cmpt") {
		t.Error("GenerateEBPF lost the bounded reader")
	}
}

// TestDuplicateSemanticRejected: a semantic requested twice is refused at
// every door — programmatic intents, pinned and evolving drivers and tenant
// specs — with the error an intent header declaring it twice gets, instead of
// compiling to a report that lists the accessor twice and, on an evolving
// driver, to a read mix that prices the semantic at zero.
func TestDuplicateSemanticRejected(t *testing.T) {
	const want = `semantic "rss" requested twice`
	for name, open := range map[string]func() error{
		"NewIntent": func() error { _, err := NewIntent("x", "rss", "rss"); return err },
		"Open":      func() error { _, err := Open("e1000e", "rss", "rss", "ip_checksum"); return err },
		"OpenEvolving": func() error {
			_, err := OpenEvolving("e1000e", EvolveOptions{}, "rss", "ip_checksum", "rss")
			return err
		},
		"OpenTenants": func() error {
			_, err := OpenTenants(TenantOptions{Cores: 1}, TenantSpec{Name: "a", Semantics: []string{"vlan", "rss", "rss"}})
			return err
		},
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, want)
		}
	}
}

func TestCompileUnknownNIC(t *testing.T) {
	intent, _ := NewIntent("app", "rss")
	if _, err := Compile("cx7", intent, CompileOptions{}); err == nil {
		t.Error("unknown NIC should fail")
	}
}

func TestParseIntentP4Public(t *testing.T) {
	intent, err := ParseIntentP4(`
header intent_t {
    @semantic("rss") bit<32> h;
    @semantic("vlan") bit<16> v;
}`, "")
	if err != nil {
		t.Fatal(err)
	}
	if intent.Name != "intent_t" || len(intent.Fields) != 2 {
		t.Errorf("intent = %+v", intent)
	}
}

func TestCompileP4CustomNIC(t *testing.T) {
	intent, err := NewIntent("app", "rss")
	if err != nil {
		t.Fatal(err)
	}
	const src = `
struct ctx_t { bit<1> f; }
header d_t { bit<8> x; }
struct meta_t { @semantic("rss") bit<32> h; @semantic("pkt_len") bit<16> l; }
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) {
    apply { co.emit(m.h); co.emit(m.l); }
}`
	res, err := CompileP4("custom", src, intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionBytes() != 6 {
		t.Errorf("completion = %dB", res.CompletionBytes())
	}
	a := res.Accessor("rss")
	if a == nil || !a.Hardware || a.OffsetBits != 0 {
		t.Errorf("rss accessor = %+v", a)
	}
	// A description cut short by a comment that never closes is rejected at
	// the position the comment opens, not compiled without its tail.
	_, err = CompileP4("custom", src+"\n/* rev B adds:\nheader extra_t { bit<8> x; }", intent, CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "custom.p4:9:1: unterminated block comment") {
		t.Errorf("truncated description: err = %v, want the unterminated comment at 9:1", err)
	}
}

func TestDriverEndToEnd(t *testing.T) {
	drv, err := Open("mlx5", "rss", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	p := pkt.NewBuilder().
		WithVLAN(0x0123).
		WithTCP(443, 55000, 0x18).
		WithPayload([]byte("public api")).
		Build()
	if !drv.Rx(p) {
		t.Fatal("rx failed")
	}
	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	polled := 0
	n := drv.Poll(func(packet []byte, meta Meta) {
		polled++
		hash, ok := meta.Get("rss")
		if !ok || hash != uint64(softnic.RSS(&in)) {
			t.Errorf("rss = %#x/%v", hash, ok)
		}
		vlan, ok := meta.Get("vlan")
		if !ok || vlan != 0x0123 {
			t.Errorf("vlan = %#x/%v", vlan, ok)
		}
		if _, ok := meta.Get("timestamp"); ok {
			t.Error("semantic outside the intent should not resolve")
		}
		if !meta.Hardware("rss") {
			t.Error("rss should be hardware on mlx5")
		}
	})
	if n != 1 || polled != 1 {
		t.Errorf("poll = %d/%d", n, polled)
	}
	if rx, drops := drv.Stats(); rx != 1 || drops != 0 {
		t.Errorf("stats = %d/%d", rx, drops)
	}
	if drv.CompletionBytes() <= 0 {
		t.Error("completion bytes")
	}
	if !strings.Contains(drv.Report(), "selected path") {
		t.Error("report")
	}
}

func TestDriverPollBatches(t *testing.T) {
	drv, err := Open("e1000", "pkt_len", "ip_checksum")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !drv.Rx(pkt.NewBuilder().WithUDP(uint16(i), 99).Build()) {
			t.Fatal("rx failed")
		}
	}
	if n := drv.Poll(func([]byte, Meta) {}); n != 10 {
		t.Errorf("first poll = %d", n)
	}
	if n := drv.Poll(func([]byte, Meta) {}); n != 0 {
		t.Errorf("drained poll = %d", n)
	}
	// Interleave: rx after poll keeps pairing packets and completions.
	drv.Rx(pkt.NewBuilder().Build())
	if n := drv.Poll(func([]byte, Meta) {}); n != 1 {
		t.Errorf("post-drain poll = %d", n)
	}
}

func TestDriverSoftwareShimThroughMeta(t *testing.T) {
	// On e1000e with rss+csum, rss is a software shim; Meta.Get must still
	// deliver the golden value.
	drv, err := Open("e1000e", "rss", "ip_checksum")
	if err != nil {
		t.Fatal(err)
	}
	p := pkt.NewBuilder().WithTCP(1, 2, 0).Build()
	drv.Rx(p)
	var in pkt.Info
	pkt.Decode(p, &in)
	drv.Poll(func(packet []byte, meta Meta) {
		if meta.Hardware("rss") {
			t.Error("rss should be a software shim here")
		}
		v, ok := meta.Get("rss")
		if !ok || v != uint64(softnic.RSS(&in)) {
			t.Errorf("soft rss = %#x/%v", v, ok)
		}
	})
}

// TestPerQueueIntents runs the paper's multi-instance scenario as
// examples/multiqueue does: one driver per queue of a programmable NIC, each
// with its own intent and so its own completion layout — a key-value queue
// (16-byte records carrying the key digest) and a telemetry queue (32-byte
// records carrying timestamps) — each reading its own queue id.
func TestPerQueueIntents(t *testing.T) {
	kvPkt := pkt.NewBuilder().WithUDP(9000, 11211).WithPayload([]byte("get k:1\r\n")).Build()
	webPkt := pkt.NewBuilder().WithTCP(443, 50000, 0x18).Build()
	var in pkt.Info
	if err := pkt.Decode(kvPkt, &in); err != nil {
		t.Fatal(err)
	}
	for q, c := range []struct {
		sems  []string
		bytes int
		hw    string
		frame []byte
		want  func(uint64) bool
	}{
		{[]string{"kv_key", "rss", "queue_id"}, 16, "kv_key", kvPkt, func(v uint64) bool { return v == softnic.KVKey(&in) }},
		{[]string{"timestamp", "rss", "pkt_len", "queue_id"}, 32, "timestamp", webPkt, func(v uint64) bool { return v != 0 }},
	} {
		intent, err := NewIntent("queue", c.sems...)
		if err != nil {
			t.Fatal(err)
		}
		drv, err := OpenWith("qdma", intent, OpenOptions{Device: nicsim.Config{QueueID: uint16(q)}})
		if err != nil {
			t.Fatal(err)
		}
		if got := drv.CompletionBytes(); got != c.bytes {
			t.Errorf("queue %d: %dB completions, want %d", q, got, c.bytes)
		}
		drv.Rx(c.frame)
		n := drv.Poll(func(_ []byte, m Meta) {
			if v, ok := m.Get(c.hw); !ok || !m.Hardware(c.hw) || !c.want(v) {
				t.Errorf("queue %d: %s = %#x/%v, hardware %v", q, c.hw, v, ok, m.Hardware(c.hw))
			}
			if v, ok := m.Get("queue_id"); !ok || v != uint64(q) {
				t.Errorf("queue %d: queue_id = %d/%v", q, v, ok)
			}
		})
		if n != 1 {
			t.Errorf("queue %d: delivered %d packets, want 1", q, n)
		}
	}
}

func TestRegisterSemanticEvolvability(t *testing.T) {
	if err := RegisterSemantic("my_accel_digest", 48, 300); err != nil {
		t.Fatal(err)
	}
	// The new semantic is requestable; no NIC provides it, software cost is
	// finite, so compilation succeeds with a shim.
	intent, err := NewIntent("app", "my_accel_digest", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile("e1000", intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Accessor("my_accel_digest")
	if a == nil || a.Hardware {
		t.Errorf("accessor = %+v, want software shim", a)
	}
	// An inemulable unknown semantic is rejected.
	if err := RegisterSemantic("hw_only_thing", 32, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	intent2, _ := NewIntent("app", "hw_only_thing")
	if _, err := Compile("e1000", intent2, CompileOptions{}); err == nil {
		t.Error("inemulable absent semantic should be unsatisfiable")
	}
}

func TestPlanOffloadsPublic(t *testing.T) {
	intent, _ := NewIntent("app", "rss", "ip_checksum")
	res, err := Compile("e1000e", intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanOffloads(res, PipelineCaps{Programmable: true, StageBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pushed()) != 1 {
		t.Errorf("pushed = %v", plan.Pushed())
	}
}

func TestOpenEvolvingDriver(t *testing.T) {
	// e1000e with the Fig. 6 tension: the static compile carries the
	// checksum in hardware; a hash-heavy read mix must renegotiate the
	// interface onto the RSS path with zero loss.
	drv, err := OpenEvolving("e1000e", EvolveOptions{
		Interval:       128,
		MinWindow:      64,
		MinShimSamples: math.MaxUint64, // deterministic: static w(s)
	}, "rss", "ip_checksum", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	if drv.Evolution().Generation != 0 {
		t.Fatal("fresh evolving driver should be at generation 0")
	}
	if drv.Result.HardwareSet().Has("rss") {
		t.Fatalf("static compile should start on the csum path, got %s", drv.Result.HardwareSet())
	}
	p := pkt.NewBuilder().WithTCP(1, 443, 0x18).WithVLAN(7).Build()
	for i := 0; i < 400; i++ {
		if !drv.Rx(p) {
			t.Fatalf("rx stalled at %d", i)
		}
		drv.Poll(func(packet []byte, meta Meta) {
			if _, ok := meta.Get("rss"); !ok {
				t.Fatal("rss read failed")
			}
			if _, ok := meta.Get("pkt_len"); !ok {
				t.Fatal("pkt_len read failed")
			}
		})
	}
	st := drv.Evolution()
	if st.Generation == 0 || st.Switchovers == 0 {
		t.Fatalf("hash-heavy mix should have switched generations: %+v", st)
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want exactly 0", st.SwitchDrops)
	}
	if !drv.Result.HardwareSet().Has("rss") {
		t.Fatalf("Result should track the new generation, got %s", drv.Result.HardwareSet())
	}
	d := drv.LastDiff()
	if d == nil || !d.Breaking() {
		t.Fatalf("switchover should record a breaking-layout diff, got %v", d)
	}
	if rx, drops := drv.Stats(); rx != 400 || drops != 0 {
		t.Fatalf("device rx=%d drops=%d, want 400/0", rx, drops)
	}
}
