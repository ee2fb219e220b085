package machine

import (
	"testing"

	"coma/internal/config"
	"coma/internal/workload"
)

// allocIdentity is a fixed 16-node ECP job with recovery points, a
// transient failure and a permanent one: every phase of the protocol
// runs, and both failures fire well before the run ends.
func allocIdentity() config.RunIdentity {
	return config.RunIdentity{
		Arch:         config.KSR1(16),
		Protocol:     "ecp",
		App:          "mp3d",
		Instructions: workload.Mp3d().Scale(0.015).Instructions,
		Seed:         7,
		CheckpointHz: 400,
		Failures: []config.FailureEvent{
			{At: 83_000, Node: 5},
			{At: 145_000, Node: 11, Permanent: true},
		},
		Oracle:    true,
		MaxCycles: 4_000_000,
	}
}

// maxRunAllocs bounds the allocations of building and running
// allocIdentity: the count measured when the bound was set, 1,091
// (1,181 while the coordinator made its round counters and barrier
// waiter lists anew, 1,474 with the AM's 8-item chunks), plus 10%.
// testing.AllocsPerRun reads the exact malloc count of the whole
// process around each run, so an allocation added to the build or to
// any protocol path shows here at once.
const maxRunAllocs = 1200

func runAllocIdentity(t *testing.T) {
	m, err := FromIdentity(allocIdentity(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ckpt.Recoveries != 2 || r.Ckpt.Established == 0 {
		t.Fatalf("%d rollbacks and %d recovery points, want 2 and some", r.Ckpt.Recoveries, r.Ckpt.Established)
	}
}

// TestRunAllocs is the simulator's exact allocation gate.
func TestRunAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { runAllocIdentity(t) })
	t.Logf("build and run: %.0f allocations", allocs)
	if allocs > maxRunAllocs {
		t.Fatalf("build and run = %.0f allocations, want at most %d", allocs, maxRunAllocs)
	}
}
