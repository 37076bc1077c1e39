package codegen_test

// The validator tests live in an external test package so they can drive the
// simulated device and the SoftNIC reference functions (softnic imports
// codegen, so the in-package tests cannot).

import (
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

func vPacket() []byte {
	return pkt.NewBuilder().
		WithVLAN(0x0123).
		WithIPv4([4]byte{192, 168, 1, 10}, [4]byte{10, 0, 0, 1}).
		WithTCP(443, 51000, 0x18).
		WithIPID(0xBEEF).
		WithPayload([]byte("validator probe")).
		Build()
}

// receive compiles the intent on a NIC, programs a device, receives one
// packet and returns the result plus the raw completion record.
func receive(t *testing.T, nicName string, p []byte, sems ...semantics.Name) (*core.Result, []byte) {
	t.Helper()
	intent, err := core.IntentFromSemantics("intent", semantics.Default, sems...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nic.MustLoad(nicName).Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", nicName, err)
	}
	dev := nicsim.MustNew(nic.MustLoad(nicName), nicsim.Config{})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	if !dev.RxPacket(p) {
		t.Fatal("rx failed")
	}
	rec := dev.CmptRing.Peek()
	if rec == nil {
		t.Fatal("no completion")
	}
	return res, rec[:res.CompletionBytes()]
}

// TestValidatorEveryBitFlipDetected is the validator's core guarantee for
// E16: with the deep tier on and a layout with no unpredictable fields, *any*
// single-bit flip anywhere in the completion record is detected.
func TestValidatorEveryBitFlipDetected(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "e1000e", p, semantics.RSS, semantics.VLAN, semantics.PktLen)
	v, err := codegen.NewValidator(res, codegen.ValidatorOptions{Deep: true, Soft: softnic.Funcs()})
	if err != nil {
		t.Fatal(err)
	}
	if viol := v.Check(rec, p); viol != nil {
		t.Fatalf("clean record rejected: %v", viol)
	}
	cov := v.Coverage()
	if got := cov.StructuralBits + cov.DeepBits; got != cov.TotalBits {
		t.Fatalf("coverage %d/%d bits (uncovered %v): e1000e layout should be fully checkable",
			got, cov.TotalBits, cov.Uncovered)
	}
	mut := make([]byte, len(rec))
	for bit := 0; bit < len(rec)*8; bit++ {
		copy(mut, rec)
		mut[bit/8] ^= 1 << (bit % 8)
		if v.Check(mut, p) == nil {
			t.Errorf("bit flip at %d undetected", bit)
		}
	}
}

// TestValidatorTiers checks the structural/deep split: with Deep off, pads
// and discriminants are still enforced but value fields are not recomputed.
func TestValidatorTiers(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "e1000e", p, semantics.RSS, semantics.VLAN, semantics.PktLen)
	v, err := codegen.NewValidator(res, codegen.ValidatorOptions{Soft: softnic.Funcs()})
	if err != nil {
		t.Fatal(err)
	}
	if viol := v.Check(rec, p); viol != nil {
		t.Fatalf("clean record rejected: %v", viol)
	}
	// Corrupting the RSS value field slips past the structural tier…
	f := res.Selected.Path.Field(semantics.RSS)
	if f == nil {
		t.Fatal("no rss field in layout")
	}
	mut := append([]byte(nil), rec...)
	mut[f.OffsetBits/8] ^= 1
	if viol := v.Check(mut, p); viol != nil {
		t.Errorf("structural tier should not catch a value corruption, got %v", viol)
	}
	// …but not past Conforms (deep forced on) …
	if v.Conforms(mut, p) {
		t.Error("Conforms must catch a value corruption")
	}
	// …and a short record is always rejected.
	if viol := v.Check(rec[:len(rec)-1], p); viol == nil || viol.Kind != codegen.ViolationShort {
		t.Errorf("short record: got %v, want a short violation", viol)
	}
}

// TestConformsAllocatesNothing: the hardened driver tries up to
// deliveredDepth candidates per quarantined record with Conforms, nearly all
// of them mismatches, so a mismatch — a value, a pad, a short record — must
// not build a Violation.
func TestConformsAllocatesNothing(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "e1000e", p, semantics.RSS, semantics.VLAN, semantics.PktLen)
	v, err := codegen.NewValidator(res, codegen.ValidatorOptions{Soft: softnic.Funcs()})
	if err != nil {
		t.Fatal(err)
	}
	value := append([]byte(nil), rec...)
	value[res.Selected.Path.Field(semantics.RSS).OffsetBits/8] ^= 1
	pad := append([]byte(nil), rec...)
	pad[len(pad)-1] ^= 1
	for name, mut := range map[string][]byte{"value": value, "pad": pad, "short": rec[:len(rec)-1]} {
		if v.Conforms(mut, p) {
			t.Fatalf("%s: a mismatching record conforms", name)
		}
		if n := testing.AllocsPerRun(100, func() { v.Conforms(mut, p) }); n != 0 {
			t.Errorf("%s: Conforms allocates %.1f per mismatch, want 0", name, n)
		}
	}
}

// TestValidatorSkipsTimestamp: a layout carrying a timestamp cannot be fully
// covered; flips inside the timestamp field must NOT be flagged, flips
// elsewhere must.
func TestValidatorSkipsTimestamp(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "mlx5", p, semantics.RSS, semantics.Timestamp, semantics.PktLen)
	f := res.Selected.Path.Field(semantics.Timestamp)
	if f == nil {
		t.Skip("selected mlx5 path carries no timestamp")
	}
	v, err := codegen.NewValidator(res, codegen.ValidatorOptions{Deep: true, Soft: softnic.Funcs()})
	if err != nil {
		t.Fatal(err)
	}
	if viol := v.Check(rec, p); viol != nil {
		t.Fatalf("clean record rejected: %v", viol)
	}
	cov := v.Coverage()
	if len(cov.Uncovered) == 0 {
		t.Error("timestamp field should be reported uncovered")
	}
	mut := append([]byte(nil), rec...)
	mut[f.OffsetBits/8] ^= 0x55
	if viol := v.Check(mut, p); viol != nil {
		t.Errorf("timestamp flip must be tolerated, got %v", viol)
	}
}

// TestValidatorConsts pins device-state fields (queue id, mark, crypto ctx)
// to driver-configured constants.
func TestValidatorConsts(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "qdma", p, semantics.RSS, semantics.QueueID, semantics.Mark)
	f := res.Selected.Path.Field(semantics.QueueID)
	if f == nil {
		t.Skip("selected qdma path carries no queue_id")
	}
	v, err := codegen.NewValidator(res, codegen.ValidatorOptions{
		Deep: true,
		Soft: softnic.Funcs(),
		Consts: map[semantics.Name]uint64{
			semantics.QueueID: 0, semantics.Mark: 0, semantics.CryptoCtx: 0,
			semantics.LROSegs: 1, semantics.SegCnt: 1, semantics.RXDropHint: 0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if viol := v.Check(rec, p); viol != nil {
		t.Fatalf("clean record rejected: %v", viol)
	}
	mut := append([]byte(nil), rec...)
	mut[f.OffsetBits/8] ^= 1 << (f.OffsetBits % 8)
	viol := v.Check(mut, p)
	if viol == nil || viol.Kind != codegen.ViolationConst {
		t.Errorf("queue_id flip: got %v, want a const violation", viol)
	}
}

// TestSoftRuntime checks the degraded-mode accessor table: every reader is a
// software shim (Hardware false) and produces the golden values even from a
// garbage descriptor.
func TestSoftRuntime(t *testing.T) {
	p := vPacket()
	res, rec := receive(t, "e1000e", p, semantics.RSS, semantics.VLAN, semantics.PktLen)
	hw := codegen.NewRuntime(res, softnic.Funcs())
	soft := codegen.NewSoftRuntime(res, softnic.Funcs())
	garbage := make([]byte, len(rec)) // all zero: a descriptor we must not trust
	for _, r := range soft.Readers {
		if r.Hardware {
			t.Errorf("soft runtime reader %s claims hardware", r.Semantic)
		}
		want := hw.Reader(r.Semantic).Read(rec, p)
		if got := r.Read(garbage, p); got != want {
			t.Errorf("%s: soft=%#x hw=%#x", r.Semantic, got, want)
		}
	}
}
