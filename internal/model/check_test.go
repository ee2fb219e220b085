package model

import (
	"bytes"
	"strings"
	"testing"

	"coma/internal/proto"
)

// TestCheckGoldenCounts pins the reachable state space of the small
// configurations. A change here means the abstract model changed — that
// is fine when intentional, but must be a conscious decision.
func TestCheckGoldenCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg                        CheckConfig
		states, transitions, stuck int
		edges                      int
	}{
		// At 3 nodes the six Inv-CK movement edges are unreachable and
		// establishments can wedge (the paper's >= 4 nodes argument).
		{CheckConfig{Items: 1, Nodes: 3}, 74, 519, 6, 29},
		{CheckConfig{Items: 2, Nodes: 3}, 4090, 36831, 420, 29},
		// At 4 nodes the model reaches the full 35-edge spec and never
		// wedges.
		{CheckConfig{Items: 1, Nodes: 4}, 352, 3596, 0, 35},
	} {
		r, err := Check(tc.cfg)
		if err != nil {
			t.Fatalf("Check(%+v): %v", tc.cfg, err)
		}
		if len(r.Violations) != 0 {
			var sb strings.Builder
			r.Write(&sb)
			t.Fatalf("Check(%+v) found violations:\n%s", tc.cfg, sb.String())
		}
		if r.States != tc.states || r.Transitions != tc.transitions ||
			r.CreateStuck != tc.stuck || r.Edges.Len() != tc.edges {
			t.Errorf("Check(%+v) = %d states, %d transitions, %d stuck, %d edges; want %d, %d, %d, %d",
				tc.cfg, r.States, r.Transitions, r.CreateStuck, r.Edges.Len(),
				tc.states, tc.transitions, tc.stuck, tc.edges)
		}
	}
}

// TestCheckReachesFullSpec asserts edge-exact agreement between the
// model's reachable edges and the spec at the paper's minimum viable
// machine size.
func TestCheckReachesFullSpec(t *testing.T) {
	r, err := Check(CheckConfig{Items: 1, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(SpecTable(), r.Edges)
	if !d.Clean() {
		var sb strings.Builder
		d.Write(&sb, SpecTable(), r.Edges)
		t.Fatalf("model edges drift from spec at 1x4:\n%s", sb.String())
	}
}

// TestCheckSpecMutation corrupts one spec edge and asserts the diff the
// check command relies on turns dirty — the model still reaches the
// dropped edge, so removal is detected.
func TestCheckSpecMutation(t *testing.T) {
	r, err := Check(CheckConfig{Items: 1, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := NewTable("spec")
	dropped := proto.Edge{From: proto.PreCommit1, To: proto.Invalid}
	found := false
	for _, e := range SpecTable().Edges() {
		if e == dropped {
			found = true
			continue
		}
		corrupted.Add(e, "kept")
	}
	if !found {
		t.Fatalf("spec no longer lists %v; pick another mutation target", dropped)
	}
	d := Diff(corrupted, r.Edges)
	if d.Clean() {
		t.Fatalf("dropping %v from the spec went undetected", dropped)
	}
	if len(d.OnlyB) != 1 || d.OnlyB[0] != dropped {
		t.Errorf("expected exactly the dropped edge on the model side, got %v", d.OnlyB)
	}
}

// TestCheckDeterminism renders two independent runs and requires
// byte-identical reports.
func TestCheckDeterminism(t *testing.T) {
	render := func() []byte {
		r, err := Check(CheckConfig{Items: 2, Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Write(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("two model-checking runs rendered different reports")
	}
}

// TestCheckRejectsTinyConfigs covers the argument validation.
func TestCheckRejectsTinyConfigs(t *testing.T) {
	if _, err := Check(CheckConfig{Items: 0, Nodes: 4}); err == nil {
		t.Error("0 items accepted")
	}
	if _, err := Check(CheckConfig{Items: 1, Nodes: 1}); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := Check(CheckConfig{Items: 2, Nodes: 4, MaxStates: 100}); err == nil {
		t.Error("state cap not enforced")
	}
}
