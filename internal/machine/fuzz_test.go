package machine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/fault"
	"coma/internal/workload"
)

// fuzzApps are the presets FuzzFailurePlan draws from.
var fuzzApps = []string{"barnes", "cholesky", "mp3d", "water", "uniform", "private", "migratory"}

// fuzzSpans caches the failure-free run length of each (nodes, app)
// shape, so a fuzz execution runs one machine, not two.
var fuzzSpans sync.Map

// failurePlanCase decodes a fuzz input into an ECP machine: 4–9 nodes,
// a preset at a small budget, a recovery-point interval of a half to a
// ninth of the run, and up to four failures, one per 4-byte record of
// raw: [cycle hi, cycle lo, node, flags]. A cycle spans about twice the
// failure-free run length. Flag bit 0 makes the failure permanent, bit 1
// puts it at the previous failure's cycle (simultaneous failures), and
// bits 5–7 all set make its cycle negative. A node byte of 0xF0 or more
// names a node just outside the machine; any other picks a real one.
func failurePlanCase(t *testing.T, nodesB, appB, ckptB uint8, seed uint64, raw []byte) Config {
	nodes := 4 + int(nodesB)%6
	app, _ := workload.ByName(fuzzApps[int(appB)%len(fuzzApps)])
	app.Instructions = int64(nodes) * 15_000
	cfg := Config{
		Arch:     config.KSR1(nodes),
		Protocol: coherence.ECP,
		App:      app,
		Seed:     seed,
		Oracle:   true,
	}
	key := fmt.Sprint(nodes, app.Name)
	span, ok := fuzzSpans.Load(key)
	if !ok {
		probe := cfg
		probe.Protocol = coherence.Standard
		probe.Seed = 1
		span = runCfg(t, probe).Cycles
		fuzzSpans.Store(key, span)
	}
	run := span.(int64)
	cfg.CheckpointInterval = run/int64(2+ckptB%8) + 1
	// Four failures replay at most four runs' worth from their recovery
	// points; a run past this cap has livelocked.
	cfg.MaxCycles = 40*run + 1_000_000
	for i := 0; i+4 <= len(raw) && i < 16; i += 4 {
		r := raw[i : i+4]
		at := 2 * run * (int64(r[0])<<8 | int64(r[1])) >> 16
		if r[3]&2 != 0 && len(cfg.Failures) > 0 {
			at = cfg.Failures[len(cfg.Failures)-1].At
		}
		if r[3]>>5 == 7 {
			at = -1 - at
		}
		node := int(r[2]) % nodes
		if r[2] >= 0xF0 {
			node = nodes + int(r[2]&7)
			if r[2]&8 != 0 {
				node = -1 - int(r[2]&7)
			}
		}
		cfg.Failures = append(cfg.Failures, config.FailureEvent{At: at, Node: node, Permanent: r[3]&1 != 0})
	}
	return cfg
}

// FuzzFailurePlan: fault.Plan.Validate rejects a failure plan exactly
// when machine.New does, and a plan both accept runs to completion, to
// ErrDataLoss (overlapping failures beat the two-copy scheme) or to
// ErrTooFewNodes (permanent failures left fewer than four nodes) —
// never to a panic, a broken oracle or invariant, or the cycle cap.
func FuzzFailurePlan(f *testing.F) {
	// Simultaneous transient failures of adjacent nodes.
	f.Add(uint8(5), uint8(2), uint8(3), uint64(1), []byte{0x80, 0, 3, 0, 0, 0, 4, 2})
	// A permanent failure on 4 nodes: the ECP cannot go on below four.
	f.Add(uint8(0), uint8(3), uint8(2), uint64(1), []byte{0x60, 0, 1, 1})
	// Permanent failures of nodes parked at an application barrier as
	// it opens: without AppBarrier retracting an arrival only from its
	// own round, the next round counted one arrival too many and the
	// machine idled to the cycle cap.
	f.Add(uint8(3), uint8(0), uint8(2), uint64(7), []byte("*\x00Y100A0X000P001"))
	// A permanent failure whose reconfiguration injects an item into a
	// node while that node's processor waits for its AM controller to
	// allocate the same page's frame: the frame must be checked again
	// after the wait, not allocated twice.
	f.Add(uint8(2), uint8(3), uint8(2), uint64(1), []byte(",011"))
	// A transient then a permanent failure, out of time order.
	f.Add(uint8(3), uint8(0), uint8(4), uint64(7), []byte{0xA0, 0, 5, 1, 0x30, 0, 2, 0})
	// Out-of-range nodes and a negative cycle: rejected up front.
	f.Add(uint8(1), uint8(1), uint8(1), uint64(2), []byte{0x40, 0, 0xF1, 0})
	f.Add(uint8(1), uint8(1), uint8(1), uint64(2), []byte{0x40, 0, 0xF9, 0})
	f.Add(uint8(1), uint8(1), uint8(1), uint64(2), []byte{0x40, 0, 1, 0xE0})
	f.Fuzz(func(t *testing.T, nodesB, appB, ckptB uint8, seed uint64, raw []byte) {
		cfg := failurePlanCase(t, nodesB, appB, ckptB, seed, raw)
		verr := fault.Plan(cfg.Failures).Validate(cfg.Arch.Nodes)
		m, err := New(cfg)
		if (verr == nil) != (err == nil) {
			t.Fatalf("Validate = %v but New = %v for %+v", verr, err, cfg.Failures)
		}
		if err != nil {
			return
		}
		_, err = m.Run()
		if err != nil && !errors.Is(err, ErrDataLoss) && !errors.Is(err, ErrTooFewNodes) {
			t.Fatalf("%d nodes, %s, seed %d, interval %d, failures %+v: %v",
				cfg.Arch.Nodes, cfg.App.Name, cfg.Seed, cfg.CheckpointInterval, cfg.Failures, err)
		}
	})
}
