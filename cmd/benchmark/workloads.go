package main

import (
	"fmt"
	"math"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/pkt"
	"opendesc/internal/workload"
)

// tracePackets is the length of every generated trace; it is replayed in
// laps. A multiple of every burst size, so bursts never straddle a lap.
const tracePackets = 16384

// Workload constants: the same on every commit, so numbers stay comparable.
const (
	openLoopBurstCap = 32     // most packets injected between two polls when behind schedule
	gatedRatePPS     = 100000 // the open-loop step the gated latency metrics come from
	flipEvery        = 8192   // evolve_shift: deliveries between read-mix flips
	lightEvery       = 16     // evolve_shift: the light semantic is read every 16th delivery
	smokeBurst       = 32     // compile_open: packets checked through each opened device
)

// rateStep is one step of the open-loop rate staircase: a rate and the share
// of the window it runs for.
type rateStep struct {
	pps   float64
	share float64
}

// openLoopSteps is the staircase of kv_openloop. The middle step is the
// gated one (about 30% utilisation at the seed commit); the outer steps give
// the latency-versus-rate context.
var openLoopSteps = []rateStep{{50000, 0.2}, {gatedRatePPS, 0.6}, {200000, 0.2}}

type driveKind int

const (
	closedLoop driveKind = iota // inject a burst, poll until it is delivered, repeat
	openLoop                    // Poisson arrivals on a schedule the stack does not control
	grid                        // compile and open devices over a NIC × intent grid
)

// stack is the system under test as the harness sees it: packets in, one
// poll sweep over every core out. open sets exactly one of drv and plane;
// bind attaches the application side.
type stack struct {
	rx    func([]byte) bool
	poll  func() int
	drv   *opendesc.Driver
	plane *opendesc.ServingPlane
}

// bind points the stack's deliveries at c.
func (st *stack) bind(c *consumer) error {
	if st.drv != nil {
		st.rx = st.drv.Rx
		st.poll = func() int { return st.drv.Poll(c.onMeta) }
		return nil
	}
	// Deliveries are FIFO per RSS shard, not across shards: the order check
	// follows each shard's own sequence.
	c.order = make([][]int32, tenantCores)
	c.cursor = make([]int, tenantCores)
	c.perTenant = make([]uint64, numTenants)
	for i, p := range c.tr.pkts {
		var info pkt.Info
		if err := pkt.Decode(p, &info); err != nil {
			return err
		}
		q := st.plane.Steer(&info)
		c.order[q] = append(c.order[q], int32(i))
	}
	st.rx = st.plane.Rx
	st.poll = func() int {
		n := 0
		for core := 0; core < tenantCores; core++ {
			n += st.plane.PollCore(core, c.onDelivery)
		}
		return n
	}
	return nil
}

// workloadDef is one named workload: its inputs, its device bring-up and the
// application's read plan.
type workloadDef struct {
	name, why string
	kind      driveKind
	nic       string
	// sems is every semantic a handler of this workload may read.
	sems  []string
	burst int
	// sloUs is the latency limit bench.slo_ok_frac counts against: per packet from
	// its due time in open loop (the application's limit); per burst
	// turnaround in closed loop, about three times the usual turnaround, so
	// that only a stall misses it and a slower box does not.
	sloUs float64
	gen   func(seed int64) (pkts [][]byte, tenantOf []int, err error)
	// open is the workload's device bring-up.
	open func(seed int64) (*stack, error)
	// plan, when non-nil, replaces "read every semantic on every delivery".
	// verifyAll says the plan samples the intent, so the verification lap
	// reads every semantic instead of following it.
	plan      func(c *consumer, idx int) []uint8
	verifyAll bool
	// store gives the application a key-value store keyed by kv_key.
	store bool
}

func genMix(spec workload.Spec) func(int64) ([][]byte, []int, error) {
	return func(seed int64) ([][]byte, []int, error) {
		spec.Packets, spec.Seed = tracePackets, seed
		tr, err := workload.Generate(spec)
		if err != nil {
			return nil, nil, err
		}
		return tr.Packets, nil, nil
	}
}

// tenantProfiles are the four application shapes the tenants cycle through
// (the E19 profiles): indexes into the tenants_zipf semantic list.
var (
	tenantSems     = []string{"rss", "pkt_len", "ip_checksum", "ptype", "vlan"}
	tenantProfiles = [][]uint8{{0, 1}, {2, 1}, {1, 3}, {0, 4}}
)

const (
	numTenants  = 16
	tenantCores = 2
)

func tenantSpecs() []opendesc.TenantSpec {
	specs := make([]opendesc.TenantSpec, numTenants)
	for i := range specs {
		var sems []string
		for _, k := range tenantProfiles[i%len(tenantProfiles)] {
			sems = append(sems, tenantSems[k])
		}
		specs[i] = opendesc.TenantSpec{Name: fmt.Sprintf("tenant%02d", i), Semantics: sems}
	}
	return specs
}

// evolvePhases are the two read mixes evolve_shift flips between: {heavy,
// light} indexes into its semantic list (ip_checksum-heavy, then rss-heavy).
var (
	evolveSems   = []string{"rss", "ip_checksum", "vlan", "pkt_len"}
	evolvePhases = [2][2][]uint8{{{1}, {1, 0}}, {{0}, {0, 1}}}
)

var (
	fastpathSems = []string{"rss", "vlan", "pkt_len"}
	hardenedSems = []string{"rss", "ip_checksum", "kv_key", "payload_hash", "tunnel_id"}
	kvSems       = []string{"ip_checksum", "vlan", "rss", "kv_key"}
)

var workloads = []*workloadDef{
	{
		name: "hw_fastpath",
		why:  "smallest frames, every read a hardware accessor: nicsim is ~95% of the work, the facade poll loop and Meta.Get are all of the host cost",
		kind: closedLoop, nic: "ice", sems: fastpathSems, burst: 32, sloUs: 250,
		gen: genMix(workload.Spec{Flows: 64, PayloadBytes: 18, TCPFraction: 0.6, VLANFraction: 0.3}),
		open: func(int64) (*stack, error) {
			drv, err := opendesc.Open("ice", fastpathSems...)
			return &stack{drv: drv}, err
		},
	},
	{
		name: "shim_hardened",
		why:  "the opposite corner: four of five semantics are shims over 1 KiB payloads, deep validation and seeded corruption, long bursts on the pending queue",
		kind: closedLoop, nic: "e1000e", sems: hardenedSems, burst: 256, sloUs: 4500,
		gen: genMix(workload.Spec{Flows: 64, PayloadBytes: 1024, TCPFraction: 0.6, VLANFraction: 0.3, KVFraction: 0.3, TunnelFraction: 0.3}),
		open: func(seed int64) (*stack, error) {
			intent, err := opendesc.NewIntent("bench", hardenedSems...)
			if err != nil {
				return nil, err
			}
			drv, err := opendesc.OpenWith("e1000e", intent, opendesc.OpenOptions{Harden: &opendesc.HardenOptions{Deep: true}})
			if err != nil {
				return nil, err
			}
			inj, err := faults.Parse("corrupt=0.001", uint64(seed))
			if err != nil {
				return nil, err
			}
			drv.InjectFaults(inj)
			return &stack{drv: drv}, nil
		},
	},
	{
		name: "kv_openloop",
		why:  "the paper's Fig. 1 key-value app under Poisson arrivals it does not control: latency from the intended send time, so a stall charges every packet queued behind it",
		kind: openLoop, nic: "qdma", sems: kvSems, sloUs: 50,
		gen:   genMix(workload.Spec{Flows: 64, PayloadBytes: 32, VLANFraction: 0.3, KVFraction: 1}),
		store: true,
		open: func(int64) (*stack, error) {
			drv, err := opendesc.Open("qdma", kvSems...)
			return &stack{drv: drv}, err
		},
	},
	{
		name: "tenants_zipf",
		why:  "16 tenants on one jointly compiled mlx5 layout over two million Zipf flows: per-packet decode, port classification, Toeplitz steering, per-tenant runtimes, two locks per packet",
		kind: closedLoop, nic: "mlx5", sems: tenantSems, burst: 32, sloUs: 350,
		gen: func(seed int64) ([][]byte, []int, error) {
			tr, err := workload.GenerateZipf(workload.ZipfSpec{
				Packets: tracePackets, Flows: 2 << 20, Skew: 1.1, Tenants: numTenants, Seed: uint64(seed),
			})
			if err != nil {
				return nil, nil, err
			}
			return tr.Packets, tr.TenantOf, nil
		},
		open: func(int64) (*stack, error) {
			plane, err := opendesc.OpenTenants(opendesc.TenantOptions{NIC: "mlx5", Cores: tenantCores, RingEntries: 2048}, tenantSpecs()...)
			return &stack{plane: plane}, err
		},
		plan: func(c *consumer, idx int) []uint8 {
			return tenantProfiles[c.tr.tenantOf[idx]%len(tenantProfiles)]
		},
	},
	{
		name: "evolve_shift",
		why:  "control plane beside data plane: the read mix flips every 8192 deliveries, so the evolving driver recompiles, drains and switches layout while packets flow",
		kind: closedLoop, nic: "e1000e", sems: evolveSems, burst: 32, sloUs: 300,
		gen: genMix(workload.Spec{Flows: 64, PayloadBytes: 64, TCPFraction: 0.6, VLANFraction: 0.3}),
		open: func(int64) (*stack, error) {
			// MinShimSamples = MaxUint64 keeps the re-solve on the static
			// w(s) table, so the switchover count is an exact function of
			// the packets delivered, on any machine.
			drv, err := opendesc.OpenEvolving("e1000e", opendesc.EvolveOptions{
				Interval: 256, MinWindow: 128, MinShimSamples: math.MaxUint64,
			}, evolveSems...)
			return &stack{drv: drv}, err
		},
		verifyAll: true,
		plan: func(c *consumer, _ int) []uint8 {
			phase := &evolvePhases[(c.delivered/flipEvery)%2]
			if c.delivered%lightEvery == 0 {
				return phase[1]
			}
			return phase[0]
		},
	},
	{
		name: "compile_open",
		why:  "no steady traffic: cold compile, device bring-up and one checked smoke burst per NIC x intent cell, then a differential verification pass; bypasses the steady-state datapath",
		kind: grid, sems: gridSems, burst: smokeBurst, sloUs: 1200,
		gen: genMix(workload.Spec{Flows: 64, PayloadBytes: 64, TCPFraction: 0.5, VLANFraction: 0.3, KVFraction: 0.2}),
	},
}

// gridIntents are the four intents of the compile_open grid, as indexes into
// gridSems: a one-field intent, the fast-path triple, the paper's Fig. 1
// key-value intent, and an eight-semantic telemetry intent.
var (
	gridSems    = []string{"rss", "vlan", "pkt_len", "ip_checksum", "kv_key", "l4_checksum", "ptype", "flow_id", "l4_dst_port"}
	gridIntents = [][]uint8{{0}, {0, 1, 2}, {3, 1, 0, 4}, {0, 1, 2, 3, 5, 6, 7, 8}}
)

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
