package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"coma/internal/coherence"
)

// TestRunLeavesNoGoroutines: handler processes recycle their goroutines
// through the engine's free list, and Run's Shutdown must end them all —
// live and idle — on every way out of Run: completion, the first fatal
// error, and the MaxCycles limit.
func TestRunLeavesNoGoroutines(t *testing.T) {
	normal := baseCfg(16, coherence.ECP)
	normal.CheckpointHz = 400

	// Four ECP nodes cannot survive a permanent failure: the rollback
	// stops the machine with ErrTooFewNodes (the firstErr path).
	tooFew := baseCfg(4, coherence.ECP)
	tooFew.CheckpointHz = 400
	tooFew.Failures = []FailurePlan{{At: probeCycles(t, tooFew) / 2, Node: 1, Permanent: true}}

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
			// An ended process goroutine returns just after handing the
			// baton back to Shutdown, so allow it a moment to exit.
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
