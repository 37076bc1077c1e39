//go:build !amd64

package softnic

// haveAVX2 is false off amd64: payload_hash's burst form runs on the
// four-lane scheduler alone.
const haveAVX2 = false

func fnvGather(*byte, *[BurstMax]int32, *[BurstMax]uint32, int) {
	panic("softnic: no vector FNV-1a body on this architecture")
}
