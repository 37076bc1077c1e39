// Multi-queue example — the paper notes that "applications might use
// multiple OpenDesc instances with different intents to obtain different
// queues tailored for different kind of traffic". Here a programmable NIC
// (QDMA) serves two queues, each its own driver: a key-value queue whose
// completions carry the request key digest, and a telemetry queue whose
// completions carry hardware timestamps — with port-based steering between
// them. Both read metadata through the one receive path (Poll / Meta.Get).
//
//	go run ./examples/multiqueue
package main

import (
	"fmt"
	"log"

	"opendesc"
	"opendesc/internal/nicsim"
	"opendesc/internal/pkt"
	"opendesc/internal/workload"
)

func main() {
	intents := [][]string{
		{"kv_key", "rss", "queue_id"},               // queue 0: key-value requests
		{"timestamp", "rss", "pkt_len", "queue_id"}, // queue 1: everything else
	}
	var drv [2]*opendesc.Driver
	for i, sems := range intents {
		intent, err := opendesc.NewIntent(fmt.Sprintf("queue%d", i), sems...)
		if err != nil {
			log.Fatal(err)
		}
		drv[i], err = opendesc.OpenWith("qdma", intent, opendesc.OpenOptions{
			Device: nicsim.Config{QueueID: uint16(i)},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("queue %d: %2dB completions, config %v\n", i, drv[i].CompletionBytes(), drv[i].Result.Config)
	}

	// Mixed traffic: half memcached requests, half web.
	spec := workload.DefaultSpec()
	spec.Packets = 600
	spec.KVFraction = 0.5
	spec.VLANFraction = 0
	trace, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	get := func(meta opendesc.Meta, sem string) uint64 {
		v, ok := meta.Get(sem)
		if !ok {
			log.Fatalf("%s unavailable", sem)
		}
		return v
	}
	keys := map[uint64]int{}
	var lastTS, tsCount uint64
	handlers := [2]func([]byte, opendesc.Meta){
		func(_ []byte, meta opendesc.Meta) {
			if q := get(meta, "queue_id"); q != 0 {
				log.Fatalf("kv queue read queue_id %d", q)
			}
			keys[get(meta, "kv_key")]++
		},
		func(_ []byte, meta opendesc.Meta) {
			if q := get(meta, "queue_id"); q != 1 {
				log.Fatalf("telemetry queue read queue_id %d", q)
			}
			ts := get(meta, "timestamp")
			if ts <= lastTS {
				log.Fatalf("timestamps not monotonic: %d then %d", lastTS, ts)
			}
			lastTS = ts
			tsCount++
		},
	}
	var in pkt.Info
	for _, p := range trace.Packets {
		// The steering rule: memcached's port to queue 0, the rest to 1.
		q := 1
		if pkt.Decode(p, &in) == nil && in.DstPort == 11211 {
			q = 0
		}
		if !drv[q].Rx(p) || drv[q].Poll(handlers[q]) != 1 {
			log.Fatalf("queue %d lost a packet", q)
		}
	}
	fmt.Printf("kv queue:        %d requests over %d distinct keys (hardware key digests)\n",
		len(trace.Packets)-int(tsCount), len(keys))
	fmt.Printf("telemetry queue: %d packets, monotonic hardware timestamps up to %dns\n",
		tsCount, lastTS)
}
