package opendesc

import (
	"opendesc/internal/faults"
	"opendesc/internal/rxpath"
)

// The hardened datapath is a policy on the driver's receive queue
// (internal/rxpath/harden.go states the contract it defends).
type (
	// HardenOptions tunes the hardened datapath enabled by Driver.Harden.
	HardenOptions = rxpath.HardenOptions
	// HardeningStats snapshots the hardened-datapath counters.
	HardeningStats = rxpath.HardeningStats
)

// Harden arms the hardened datapath: completion validation, the device
// watchdog, and SoftNIC degraded mode. It must be called before the first
// Rx. On an evolving driver the validator and the software runtime are per
// generation — a packet parked across a switchover is judged under the
// layout it was DMAed with — renegotiation pauses while the driver is
// degraded, and the watchdog restores the active generation's configuration.
func (d *Driver) Harden(opts HardenOptions) error { return d.q.Harden(opts) }

// Hardened reports whether the hardened datapath is armed.
func (d *Driver) Hardened() bool { return d.q.Hardened() }

// InjectFaults attaches a fault injector to the underlying simulated device
// (nil detaches). Pair with Harden to exercise the recovery machinery.
func (d *Driver) InjectFaults(inj *faults.Injector) { d.q.Dev().InjectFaults(inj) }

// Hardening snapshots the hardened-datapath counters (zero for drivers
// without Harden). Safe to call concurrently with the datapath.
func (d *Driver) Hardening() HardeningStats { return d.q.Hardening() }
