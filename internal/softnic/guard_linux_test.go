package softnic

import (
	"syscall"
	"testing"
)

// TestWideReadsNothingPastItsSpans: 32 long spans, each ending where a
// PROT_NONE page begins, so a gather that read one byte past a span would
// fault. All of them sit in one mapping, well inside the kernel's 2 GiB
// reach.
func TestWideReadsNothingPastItsSpans(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the four-lane scheduler is payload_hash's only body")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*BurstMax*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	spans := make([][]byte, BurstMax)
	for k := range spans {
		end := (2*k + 1) * page
		if err := syscall.Mprotect(mem[end:end+page], syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
		n := min(256+61*k, page)
		spans[k] = mem[end-n : end : end]
		for i := range spans[k] {
			spans[k][i] = byte(i ^ k)
		}
	}
	if got := hashBoth(t, spans, wideLanes); got != BurstMax {
		t.Fatalf("the pre-pass covered %d of %d spans", got, BurstMax)
	}
}
