package main

import (
	"fmt"

	"opendesc"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// trace is a workload's input: the packets, replayed in laps, and the
// SoftNIC golden value of every semantic a handler may read, per packet.
type trace struct {
	pkts [][]byte
	// tenantOf[i] is packet i's tenant (nil for single-tenant workloads).
	tenantOf []int
	sems     []string
	// gold[k][i] is softnic.Funcs()[sems[k]] of packet i.
	gold [][]uint64
}

// newTrace computes the golden table for the given semantics. The golden is
// the SoftNIC reference, never the stack under test.
func newTrace(pkts [][]byte, tenantOf []int, sems []string) (*trace, error) {
	tr := &trace{pkts: pkts, tenantOf: tenantOf, sems: sems, gold: make([][]uint64, len(sems))}
	funcs := softnic.Funcs()
	for k, s := range sems {
		f := funcs[semantics.Name(s)]
		if f == nil {
			return nil, fmt.Errorf("no SoftNIC golden for semantic %q", s)
		}
		tr.gold[k] = make([]uint64, len(pkts))
		for i, p := range pkts {
			tr.gold[k][i] = f(p)
		}
	}
	return tr, nil
}

// widthMasks returns, per semantic, the mask of the narrowest completion
// field any layout of the NIC carries it in: a hardware field narrower than
// the semantic truncates the value, so reads and golden are compared under
// that mask. (The narrowest over all layouts, not the selected one, because
// an evolving driver changes layout mid-run.)
func widthMasks(nicName string, sems []string) ([]uint64, error) {
	m, err := nic.Load(nicName)
	if err != nil {
		return nil, err
	}
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	masks := make([]uint64, len(sems))
	for k, s := range sems {
		width := 64
		for _, p := range paths {
			if f := p.Field(semantics.Name(s)); f != nil && f.WidthBits < width {
				width = f.WidthBits
			}
		}
		masks[k] = ^uint64(0) >> (64 - width)
	}
	return masks, nil
}

// resyncWindow is how far ahead of the expected packet a delivery is looked
// for after an order mismatch (a drop moves the stream forward by one).
const resyncWindow = 64

// consumer is the application side of a workload: it checks that each
// delivery is the next packet of the trace (by identity, O(1)), reads the
// semantics the workload's plan names, and compares each against the golden.
// A delivery is good when it arrived in order and every read matched.
type consumer struct {
	tr   *trace
	mask []uint64
	// plan returns the indexes into tr.sems to read for delivery number
	// c.delivered of trace packet idx.
	plan func(c *consumer, idx int) []uint8
	// order[q] lists the trace indexes queue q delivers, in order, per lap;
	// nil means one FIFO over the whole trace.
	order  [][]int32
	cursor []int

	delivered, good, reads uint64
	// perTenant counts good deliveries by tenant (nil unless multi-tenant).
	perTenant []uint64
	// kv is the key-value application state: request counts sharded by key,
	// bumped on every read of semantic kvSem (-1: the workload has no store).
	kv    [kvShards]map[uint64]uint64
	kvSem int

	// spans, when non-nil, receives one handler span per delivery.
	spans     *tracer
	clk       clock
	pollSpan  int32
	burst     uint32
	handlerT0 int64
	all       []uint8
}

// planAll reads every semantic of the trace on every delivery.
func planAll(c *consumer, _ int) []uint8 { return c.all }

func newConsumer(tr *trace, mask []uint64) *consumer {
	c := &consumer{tr: tr, mask: mask, cursor: make([]int, 1), kvSem: -1, plan: planAll}
	for k := range tr.sems {
		c.all = append(c.all, uint8(k))
	}
	return c
}

// at returns the trace index of the offset-th next packet queue q owes.
func (c *consumer) at(q, offset int) int {
	if c.order == nil {
		return (c.cursor[0] + offset) % len(c.tr.pkts)
	}
	o := c.order[q]
	return int(o[(c.cursor[q]+offset)%len(o)])
}

// begin identifies a delivered packet. It returns the packet's trace index
// and the semantics to read, or idx < 0 when the delivery is not one the
// queue owes next (a duplicate, or reordered behind the cursor).
func (c *consumer) begin(q int, p []byte) (idx int, plan []uint8) {
	if c.spans != nil {
		c.handlerT0 = c.clk.now()
	}
	c.delivered++
	if q >= len(c.cursor) {
		return -1, nil
	}
	for off := 0; off < resyncWindow; off++ {
		idx = c.at(q, off)
		if &p[0] == &c.tr.pkts[idx][0] {
			// off > 0: the packets skipped were lost; they stay uncounted.
			c.cursor[q] += off + 1
			return idx, c.plan(c, idx)
		}
	}
	return -1, nil
}

// kvShards is the shard count of the key-value application's store.
const kvShards = 8

// check compares one read against the golden.
func (c *consumer) check(idx int, k uint8, v uint64, found bool) bool {
	c.reads++
	if int(k) == c.kvSem {
		c.kv[v%kvShards][v]++
	}
	return found && (v^c.tr.gold[k][idx])&c.mask[k] == 0
}

// end settles a delivery begun with begin.
func (c *consumer) end(idx int, ok bool) {
	if idx >= 0 && ok {
		c.good++
		if c.perTenant != nil {
			c.perTenant[c.tr.tenantOf[idx]]++
		}
	}
	if c.spans != nil {
		c.spans.add(spanHandler, c.pollSpan, c.burst, c.handlerT0, c.clk.now())
	}
}

// onMeta is the Poll handler of the single-tenant drivers.
func (c *consumer) onMeta(p []byte, m opendesc.Meta) {
	idx, plan := c.begin(0, p)
	ok := idx >= 0
	for _, k := range plan {
		v, found := m.Get(c.tr.sems[k])
		ok = c.check(idx, k, v, found) && ok
	}
	c.end(idx, ok)
}

// onDelivery is the PollCore handler of the multi-tenant plane.
func (c *consumer) onDelivery(d opendesc.TenantDelivery) {
	idx, plan := c.begin(d.Queue, d.Pkt)
	ok := idx >= 0
	for _, k := range plan {
		v, found := d.Get(c.tr.sems[k])
		ok = c.check(idx, k, v, found) && ok
	}
	c.end(idx, ok)
}
