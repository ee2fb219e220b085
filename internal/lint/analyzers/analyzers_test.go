package analyzers_test

import (
	"testing"

	"coma/internal/lint/analysistest"
	"coma/internal/lint/analyzers"
)

func TestExhaustiveState(t *testing.T) {
	analysistest.Run(t, analyzers.ExhaustiveState, "testdata/src/exhaustivestate")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analyzers.Determinism, "testdata/src/determinism")
}

func TestSimBlocking(t *testing.T) {
	analysistest.Run(t, analyzers.SimBlocking, "testdata/src/simblocking")
}

// TestClosureSched proves the typed-event rule bites where it matters:
// the fixture reproduces internal/mesh's delivery scheduling, and the
// closure-literal form is diagnosed while the AtSink/AfterSink typed
// form and a one-time named ticker closure stay silent.
func TestClosureSched(t *testing.T) {
	analysistest.Run(t, analyzers.ClosureSched, "testdata/src/closuresched")
}

// TestClosureSchedSpawn proves the Spawn half of the rule: in a package
// named like the protocol engine a per-message Engine.Spawn literal is
// diagnosed and the SpawnBody slab form is not, while a start-up
// package may keep its Spawn literals.
func TestClosureSchedSpawn(t *testing.T) {
	analysistest.Run(t, analyzers.ClosureSched, "testdata/src/spawnsched/coherence")
	analysistest.Run(t, analyzers.ClosureSched, "testdata/src/spawnsched/machine")
}

func TestObsWallClock(t *testing.T) {
	analysistest.Run(t, analyzers.ObsWallClock, "testdata/src/obsimpl")
}

// TestObsWallClockFlagsSnapshotBuilders proves the snapshot-builder
// rule: wall-clock reads in any function returning internal/inspect
// view types (pointers and slices unwrapped) are flagged, while
// serving-layer rate computations stay out of scope.
func TestObsWallClockFlagsSnapshotBuilders(t *testing.T) {
	analysistest.Run(t, analyzers.ObsWallClock, "testdata/src/inspectlike")
}

// TestObsWallClockFlagsReceiptBuilders proves the same contract covers
// execution-receipt builders: receipts attest runs byte-for-byte, so
// any function returning internal/obs/receipt types must derive every
// field from the run, never the wall clock.
func TestObsWallClockFlagsReceiptBuilders(t *testing.T) {
	analysistest.Run(t, analyzers.ObsWallClock, "testdata/src/receiptlike")
}

func TestStateTransition(t *testing.T) {
	analysistest.Run(t, analyzers.StateTransition, "testdata/src/statetransition")
}

// TestSimBlockingFlagsRunnerShapedCode proves the ConcurrencyAllowlist
// is an explicit exception, not an analyzer hole: the runnerlike fixture
// reproduces internal/experiments/runner's constructs in an
// un-allowlisted package and every one of them is diagnosed.
func TestSimBlockingFlagsRunnerShapedCode(t *testing.T) {
	analysistest.Run(t, analyzers.SimBlocking, "testdata/src/runnerlike")
}

// TestSimBlockingFlagsServerShapedCode does the same for the comad
// daemon's constructs (event broadcast, drain, SSE follow loop): the
// serverlike fixture reproduces them outside the allowlisted
// internal/server package and every one is diagnosed.
func TestSimBlockingFlagsServerShapedCode(t *testing.T) {
	analysistest.Run(t, analyzers.SimBlocking, "testdata/src/serverlike")
}

// TestSimBlockingFlagsClusterShapedCode does the same for the worker
// agent's constructs (slot executor goroutines, lease-queue wait,
// heartbeat ticker loop, backoff sleep, drain): the clusterlike fixture
// reproduces them outside the allowlisted internal/cluster package and
// every one is diagnosed.
func TestSimBlockingFlagsClusterShapedCode(t *testing.T) {
	analysistest.Run(t, analyzers.SimBlocking, "testdata/src/clusterlike")
}

// TestDeterminismFlagsTraceAnalysisShapedCode pins the reason
// DeterminismScope treats internal/obs as a subtree: the txnviewlike
// fixture reproduces the offline trace-checker's constructs (replay
// maps, diagnostic lists, report rendering) and every nondeterministic
// variant is diagnosed, while the collect-then-sort form stays silent.
func TestDeterminismFlagsTraceAnalysisShapedCode(t *testing.T) {
	analysistest.Run(t, analyzers.Determinism, "testdata/src/txnviewlike")
}

func TestDeterminismScope(t *testing.T) {
	for path, want := range map[string]bool{
		"coma/internal/sim":                true,
		"coma/internal/coherence":          true,
		"coma/internal/core":               true,
		"coma/internal/node":               true,
		"coma/internal/obs":                true,
		"coma/internal/obs/txnview":        true, // offline analyses: pure trace functions
		"coma/internal/experiments":        true,
		"coma/internal/experiments/runner": false, // ConcurrencyAllowlist
		"coma/internal/server":             false, // ConcurrencyAllowlist
		"coma/internal/server/client":      false, // ConcurrencyAllowlist
		"coma/internal/server/future":      true,  // subtree default: checked
		"coma/internal/cluster":            false, // ConcurrencyAllowlist
		"coma/internal/cluster/sub":        true,  // subtree default: checked
		"coma/internal/mesh":               true,  // slab indices feed dispatch order
		"coma/internal/machine":            true,  // assembles and seeds the engine
		"coma/internal/inspect":            true,  // safe-point snapshots: sim time only
		"coma/internal/proto":              false,
		"coma/cmd/comasim":                 false,
	} {
		if got := analyzers.DeterminismScope(path); got != want {
			t.Errorf("DeterminismScope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestSimBlockingScope(t *testing.T) {
	for path, want := range map[string]bool{
		"coma/internal/coherence":          true,
		"coma/internal/machine":            true,
		"coma/internal/snoop":              true,
		"coma/internal/experiments":        true,
		"coma/internal/experiments/runner": false, // ConcurrencyAllowlist
		"coma/internal/server":             false, // ConcurrencyAllowlist
		"coma/internal/server/client":      false, // ConcurrencyAllowlist
		"coma/internal/server/future":      true,  // subtree default: checked
		"coma/internal/cluster":            false, // ConcurrencyAllowlist
		"coma/internal/cluster/sub":        true,  // subtree default: checked
		"coma/internal/sim":                false, // implements the primitives
		"coma/internal/proto":              false,
		"coma/cmd/comasim":                 false,
	} {
		if got := analyzers.SimBlockingScope(path); got != want {
			t.Errorf("SimBlockingScope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestClosureSchedScope(t *testing.T) {
	for path, want := range map[string]bool{
		"coma/internal/mesh":               true,
		"coma/internal/coherence":          true,
		"coma/internal/core":               true,
		"coma/internal/machine":            true,
		"coma/internal/node":               true,
		"coma/internal/snoop":              true,
		"coma/internal/sim":                false, // implements both scheduling paths
		"coma/internal/experiments":        false, // no engine scheduling
		"coma/internal/experiments/runner": false,
		"coma/internal/obs":                false,
		"coma/cmd/comasim":                 false,
	} {
		if got := analyzers.ClosureSchedScope(path); got != want {
			t.Errorf("ClosureSchedScope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestStateTransitionScope(t *testing.T) {
	for path, want := range map[string]bool{
		"coma/internal/coherence": true,
		"coma/internal/snoop":     true,
		"coma/internal/core":      true,
		"coma/internal/machine":   true,
		"coma/internal/node":      true,
		"coma/internal/mesh":      true,
		"coma/internal/am":        false, // implements the setters and the hook
		"coma/internal/fault":     false, // drives machines, never touches slots
		"coma/internal/proto":     false,
		"coma/cmd/comasim":        false,
	} {
		if got := analyzers.StateTransitionScope(path); got != want {
			t.Errorf("StateTransitionScope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestConcurrencyAllowlistEntriesJustified(t *testing.T) {
	for path, reason := range analyzers.ConcurrencyAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %q has no recorded justification", path)
		}
	}
}
