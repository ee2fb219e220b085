package edges

import (
	"bytes"
	"strings"
	"testing"

	"coma/internal/obs"
	"coma/internal/proto"
)

// TestEdgeSuiteFullCoverage is the runtime leg of the conformance
// argument: the staged scenarios together must execute every edge of
// the specification table — including the create-window aborts and the
// injection installs over Shared victims that broad workloads miss.
func TestEdgeSuiteFullCoverage(t *testing.T) {
	rep, err := RunSuite()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.Write(&sb)
	t.Logf("\n%s", sb.String())
	if !rep.Full() {
		t.Fatalf("edge suite does not cover the full spec:\n%s", sb.String())
	}
}

// TestEdgeScenarioTargetsDisjointness documents that every spec edge is
// someone's explicit target, so a future edit cannot silently orphan
// one behind "another scenario probably covers it".
func TestEdgeScenarioTargetsClaimHardEdges(t *testing.T) {
	claimed := make(map[proto.Edge]bool)
	for _, sc := range Scenarios() {
		for _, tr := range sc.Targets {
			claimed[tr] = true
		}
	}
	// The eight edges the broad workloads never reached (the 27/35
	// plateau) must each be a named target.
	for _, tr := range []string{
		"Invalid -> MasterShared",
		"Shared -> MasterShared",
		"Shared -> SharedCK1",
		"Shared -> SharedCK2",
		"Shared -> InvCK1",
		"Shared -> InvCK2",
		"PreCommit1 -> Invalid",
		"PreCommit2 -> Invalid",
	} {
		found := false
		for c := range claimed {
			if c.String() == tr {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("hard edge %s is no scenario's target", tr)
		}
	}
}

// TestEdgeScenarioDeterminism requires a scenario's trace to be
// byte-identical across runs: the suite doubles as a regression anchor,
// which only works if the choreography is exactly reproducible.
func TestEdgeScenarioDeterminism(t *testing.T) {
	render := func() []byte {
		var sc Scenario
		for _, s := range Scenarios() {
			if s.Name == "recovery-pair-write" {
				sc = s
			}
		}
		if sc.Name == "" {
			t.Fatal("recovery-pair-write scenario missing")
		}
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Events); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two runs of the same scenario produced different traces")
	}
}

// TestCreateWindowAbortIsRealAbort pins the scenario's core property
// explicitly (RunScenario also enforces it): the first failure must
// land inside the create window and abort the establishment, because
// that abort is the only runtime path to the PreCommit -> Invalid edges.
func TestCreateWindowAbortIsRealAbort(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Name != "create-window-abort" {
			continue
		}
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.Ckpt.Aborted == 0 {
			t.Fatal("no aborted establishment")
		}
		if res.Run.Ckpt.Established == 0 {
			t.Fatal("no establishment ever committed; the scenario no longer recovers")
		}
		for _, tr := range []proto.Edge{
			{From: proto.PreCommit1, To: proto.Invalid},
			{From: proto.PreCommit2, To: proto.Invalid},
		} {
			if res.Exercised[tr] == 0 {
				t.Errorf("abort did not replay %s", tr)
			}
		}
		return
	}
	t.Fatal("create-window-abort scenario missing")
}
