package nicsim

import (
	"fmt"

	"opendesc/internal/ring"
	"opendesc/internal/semantics"
)

// TxQueue completes the Fig. 2 picture for the TX direction: the host posts
// descriptors into a ring (channel ① of the paper) referencing packet
// buffers (channel ②); the device consumes them, runs its DescParser-derived
// layout over the raw bytes, honours the offload intent, and "transmits".
// Transmitted frames are captured for inspection — the simulated wire.
type TxQueue struct {
	dev *Device

	descRing *ring.Ring
	buffers  *ring.BufferPool
	nextBuf  int

	// transmitted frames with the intents the device decoded for them.
	txCount  uint64
	txErrors uint64
	captured []TxCapture
	capacity int
}

// TxCapture is one transmitted frame with the device-decoded intent.
type TxCapture struct {
	Frame  []byte
	Intent map[semantics.Name]uint64
}

// NewTxQueue attaches a TX queue to a device. entries sizes the descriptor
// ring; the active TX layout (selected by the device's h2c context
// registers) fixes the descriptor size.
func (d *Device) NewTxQueue(entries int) (*TxQueue, error) {
	layout, err := d.ActiveTxLayout()
	if err != nil {
		return nil, err
	}
	if entries <= 0 {
		entries = 256
	}
	buffers, err := ring.NewBufferPool(d.cfg.BufSize, entries)
	if err != nil {
		return nil, err
	}
	return &TxQueue{
		dev:      d,
		descRing: ring.MustNew(layout.SizeBytes(), entries),
		buffers:  buffers,
		capacity: entries,
	}, nil
}

// Post enqueues one packet for transmission with the given offload intent:
// the host side writes the packet into a buffer slot and serializes a TX
// descriptor per the active layout. It returns false when the ring is full.
func (q *TxQueue) Post(packet []byte, intent map[semantics.Name]uint64) (bool, error) {
	if q.descRing.Free() == 0 {
		return false, nil
	}
	slot := q.nextBuf % q.capacity
	if err := q.buffers.Write(slot, packet); err != nil {
		return false, err
	}
	raw := map[string]uint64{}
	// The buffer address/length fields are not semantic-tagged; locate them
	// by conventional field names.
	layout, err := q.dev.ActiveTxLayout()
	if err != nil {
		return false, err
	}
	for _, f := range layout.Fields {
		switch {
		case hasSuffix(f.Name, ".addr") || hasSuffix(f.Name, ".address") || hasSuffix(f.Name, ".buffer_addr") || hasSuffix(f.Name, ".laddr"):
			raw[f.Name] = uint64(slot)
		case f.Semantic == semantics.PktLen:
			// Set via the intent map below if present; default to the
			// actual length.
			if intent == nil || intent[semantics.PktLen] == 0 {
				raw[f.Name] = uint64(len(packet))
			}
		}
	}
	desc, err := q.dev.BuildTxDescriptor(intent, raw)
	if err != nil {
		return false, err
	}
	if !q.descRing.Push(desc) {
		return false, nil
	}
	q.nextBuf++
	return true, nil
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// DeviceRun makes the device consume up to max posted descriptors: each is
// parsed through the DescParser layout, its buffer fetched, and the frame
// "transmitted" (captured). Returns how many were transmitted.
func (q *TxQueue) DeviceRun(max int) (int, error) {
	n := 0
	var firstErr error
	for (max <= 0 || n < max) && q.descRing.Len() > 0 {
		var desc []byte
		q.descRing.Consume(func(e []byte) {
			desc = append(desc[:0], e...)
		})
		res, err := q.dev.TxSubmit(desc)
		if err != nil {
			q.txErrors++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Locate the buffer via the address field posted by the host.
		slot := -1
		for name, v := range res.Raw {
			if hasSuffix(name, ".addr") || hasSuffix(name, ".address") || hasSuffix(name, ".buffer_addr") || hasSuffix(name, ".laddr") {
				slot = int(v)
				break
			}
		}
		if slot < 0 || slot >= q.capacity {
			q.txErrors++
			if firstErr == nil {
				firstErr = fmt.Errorf("nicsim: TX descriptor without resolvable buffer address")
			}
			continue
		}
		frame := q.buffers.Bytes(slot)
		// Honour the pkt_len intent when it shortens the frame (partial
		// transmit / scatter-gather head).
		if l, ok := res.Values[semantics.PktLen]; ok && l > 0 && int(l) <= len(frame) {
			frame = frame[:l]
		}
		q.captured = append(q.captured, TxCapture{
			Frame:  append([]byte(nil), frame...),
			Intent: res.Values,
		})
		if len(q.captured) > q.capacity {
			q.captured = q.captured[1:]
		}
		q.txCount++
		n++
	}
	return n, firstErr
}

// Captured returns the transmitted frames (oldest first).
func (q *TxQueue) Captured() []TxCapture { return q.captured }

// Stats returns TX counters.
func (q *TxQueue) Stats() (tx, errs uint64) { return q.txCount, q.txErrors }

// Pending returns the number of posted, not-yet-consumed descriptors.
func (q *TxQueue) Pending() int { return q.descRing.Len() }
