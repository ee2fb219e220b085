package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"coma/internal/coherence"
	"coma/internal/config"
)

// TestRunLeavesNoGoroutines: the processor and coordinator processes
// may still be parked when Run stops, and Run's Shutdown must end all of
// their goroutines on every way out of Run: completion, the first fatal
// error, and the MaxCycles limit.
func TestRunLeavesNoGoroutines(t *testing.T) {
	normal := baseCfg(16, coherence.ECP)
	normal.CheckpointHz = 400

	// Four ECP nodes cannot survive a permanent failure: the rollback
	// stops the machine with ErrTooFewNodes (the firstErr path).
	tooFew := baseCfg(4, coherence.ECP)
	tooFew.CheckpointHz = 400
	tooFew.Failures = []config.FailureEvent{{At: probeCycles(t, tooFew) / 2, Node: 1, Permanent: true}}

	limited := baseCfg(16, coherence.ECP)
	limited.MaxCycles = 20_000

	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr func(error) bool
	}{
		{"normal", normal, func(err error) bool { return err == nil }},
		{"first-error", tooFew, func(err error) bool { return errors.Is(err, ErrTooFewNodes) }},
		{"max-cycles", limited, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "still running")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); !tc.wantErr(err) {
				t.Fatalf("Run error = %v", err)
			}
			// Each process is an iter.Pull coroutine; the goroutine behind
			// an ended one may exit just after Run returns, so allow it a
			// moment.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines after Run = %d, before build = %d",
						runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestProcessesAreProcessorsAndCoordinator: coherence handlers run in
// event context, so at every safe point of a faulted ECP run, through
// a rollback and a reconfiguration, the live processes are at most the
// processors and the recovery coordinator.
func TestProcessesAreProcessorsAndCoordinator(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.App = smallApp(100_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 8
	cfg.Failures = []config.FailureEvent{
		{At: span / 3, Node: 5},
		{At: span * 2 / 3, Node: 3, Permanent: true},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	limit := cfg.Arch.Nodes + 1
	peak := 0
	m.eng.SetSafePointHook(func(int64) { peak = max(peak, m.eng.Processes()) })
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ckpt.Recoveries != 2 {
		t.Fatalf("rollbacks = %d, want 2", r.Ckpt.Recoveries)
	}
	if peak > limit {
		t.Fatalf("peak live processes = %d, want at most %d (nodes + coordinator)", peak, limit)
	}
	if peak < cfg.Arch.Nodes {
		t.Fatalf("peak live processes = %d, fewer than the %d processors", peak, cfg.Arch.Nodes)
	}
}
