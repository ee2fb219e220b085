package machine

import (
	"errors"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/fault"
	"coma/internal/sim"
	"coma/internal/workload"
)

// TestRandomisedSoak drives many short machines with randomly drawn
// workloads and failure schedules under the strictest checking (oracle
// on every read, full invariants at every commit and rollback). Every
// run must either complete cleanly or — when overlapping failures
// genuinely destroy both copies of a recovery pair — report data loss
// explicitly. Any other outcome (wrong value, broken invariant,
// deadlock) fails.
func TestRandomisedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	const runs = 12
	rng := sim.NewRNG(20260705)
	for i := 0; i < runs; i++ {
		seed := rng.Uint64()
		nodes := []int{4, 9, 16}[rng.Intn(3)]
		app := workload.Spec{
			Name:             "soak",
			Instructions:     int64(60_000 + rng.Intn(120_000)),
			ReadFrac:         0.15 + rng.Float64()*0.15,
			WriteFrac:        0.05 + rng.Float64()*0.10,
			SharedBytes:      (32 + rng.Intn(128)) << 10,
			PrivateBytes:     (8 + rng.Intn(24)) << 10,
			ReadOnlyFrac:     rng.Float64() * 0.8,
			Migratory:        rng.Float64() * 0.8,
			MigratoryObjects: 64 + rng.Intn(512),
			MigratoryPhase:   int64(200 + rng.Intn(2000)),
			Locality:         rng.Float64() * 0.7,
			HotBytes:         512 << rng.Intn(2),
			WindowBytes:      512 << rng.Intn(3),
			DriftInstr:       int64(1_000 + rng.Intn(8_000)),
			Barriers:         rng.Intn(5),
		}
		app.SharedReadFrac = app.ReadFrac * rng.Float64()
		app.SharedWriteFrac = app.WriteFrac * rng.Float64()
		if err := app.Validate(); err != nil {
			t.Fatalf("run %d: generated invalid spec: %v", i, err)
		}

		cfg := Config{
			Arch:       config.KSR1(nodes),
			Protocol:   coherence.ECP,
			App:        app,
			Seed:       seed,
			Oracle:     true,
			Strict:     true,
			Invariants: true,
			MaxCycles:  1 << 33,
		}
		probe := cfg
		probe.Protocol = coherence.Standard
		probe.Strict = false
		probe.Invariants = false
		pm, err := New(probe)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		pr, err := pm.Run()
		if err != nil {
			t.Fatalf("run %d probe: %v", i, err)
		}
		span := pr.Cycles

		cfg.CheckpointInterval = span/int64(3+rng.Intn(8)) + 1
		plan := fault.Exponential(seed^0xfa17, nodes, span/2, span, 0.3)
		cfg.Failures = plan

		t.Logf("run %d: seed=%#x nodes=%d instr=%d failures=%d perm=%d interval=%d span=%d",
			i, seed, nodes, app.Instructions, len(cfg.Failures),
			plan.PermanentCount(), cfg.CheckpointInterval, span)
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		_, err = m.Run()
		switch {
		case err == nil:
		case errors.Is(err, ErrTooFewNodes):
			t.Logf("run %d (seed %#x): machine shrank below 4 live nodes", i, seed)
		case errors.Is(err, ErrDataLoss):
			// Legitimate: the random plan produced overlapping failures.
			overlapping := false
			for a := 1; a < len(cfg.Failures); a++ {
				if cfg.Failures[a].At == cfg.Failures[a-1].At {
					overlapping = true
				}
			}
			t.Logf("run %d (seed %#x): data loss from %d failures (overlap=%v)",
				i, seed, len(cfg.Failures), overlapping)
		default:
			t.Fatalf("run %d (seed %#x, %d nodes, %d failures): %v",
				i, seed, nodes, len(cfg.Failures), err)
		}
	}
}
