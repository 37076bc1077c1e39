package softnic

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state:
// CPUID leaf 1 for OSXSAVE and AVX, XCR0 for the XMM and YMM state bits,
// leaf 7 for AVX2.
var haveAVX2 = func() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// cpuid returns EAX, EBX, ECX and EDX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv reads the low half of XCR0.
func xgetbv() uint32

// fnvGather continues the BurstMax FNV-1a-32 chains h over n bytes each
// (n a multiple of 4), lane k's bytes starting off[k] bytes past base.
//
//go:noescape
func fnvGather(base *byte, off *[BurstMax]int32, h *[BurstMax]uint32, n int)
