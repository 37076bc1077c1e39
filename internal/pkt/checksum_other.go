//go:build !amd64

package pkt

import "math"

// vectorMin keeps every body on the word-at-a-time loop: this architecture
// has no vector body.
const vectorMin = math.MaxInt

func vectorSum([]byte) uint64 { panic("pkt: no vector checksum body on this architecture") }
