package main

import "math"

// splitmix is the splitmix64 generator the repo's seeded components use
// (workload.GenerateZipf, faults, chaos): its sequence is a pure function of
// the seed on every Go release, which math/rand does not promise.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poisson is an open-loop arrival schedule: independent senders at a mean
// rate, so inter-arrival gaps are exponential. The schedule depends only on
// the seed and the rate, never on how fast the stack under test runs.
type poisson struct{ rng splitmix }

func newPoisson(seed uint64) *poisson { return &poisson{rng: splitmix{s: seed}} }

// gap returns the next inter-arrival gap in nanoseconds at ratePPS.
func (p *poisson) gap(ratePPS float64) int64 {
	// u in (0,1]: the +1 keeps log away from zero.
	u := float64(p.rng.next()>>11+1) / (1 << 53)
	return int64(-math.Log(u) / ratePPS * 1e9)
}
