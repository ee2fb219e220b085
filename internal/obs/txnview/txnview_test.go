package txnview

import (
	"bytes"
	"strings"
	"testing"

	"coma/internal/obs"
	"coma/internal/proto"
)

func tx(origin proto.NodeID, seq int64) proto.TxnID { return proto.MakeTxnID(origin, seq) }

func TestAssemble(t *testing.T) {
	t1, t2, t3 := tx(1, 1), tx(2, 1), tx(1, 2)
	events := []obs.Event{
		{Time: 100, Kind: obs.KTxnBegin, Node: 1, Item: 5, Txn: t1, A: obs.TxnRead, B: 4},
		{Time: 110, Kind: obs.KTxnHop, Node: 2, Item: 5, Txn: t1, A: int64(proto.MsgReadReq), B: 8},
		{Time: 115, Kind: obs.KTxnBegin, Node: 2, Item: 5, Txn: t2, Par: t1, A: obs.TxnInject},
		{Time: 120, Kind: obs.KTxnEnd, Node: 2, Item: 5, Txn: t2, A: 3, B: 5},
		{Time: 130, Kind: obs.KTxnEnd, Node: 1, Item: 5, Txn: t1, A: obs.FillRemote, B: 30},
		{Time: 140, Kind: obs.KTxnBegin, Node: 0, Item: 7, Txn: t3, A: obs.TxnWrite, B: 0},
	}
	s, err := Assemble(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Txns) != 3 {
		t.Fatalf("assembled %d txns, want 3", len(s.Txns))
	}
	got := s.ByID[t1]
	if got == nil || !got.Complete || got.Total != 30 || got.QueueWait != 4 || len(got.Hops) != 1 {
		t.Fatalf("t1 = %+v", got)
	}
	if got.Hops[0].Msg != proto.MsgReadReq || got.Hops[0].Latency != 8 {
		t.Fatalf("t1 hop = %+v", got.Hops[0])
	}
	if inc := s.Incomplete(); len(inc) != 1 || inc[0].ID != t3 {
		t.Fatalf("incomplete = %v", inc)
	}
	if top := s.TopK(5); len(top) != 2 || top[0].ID != t1 || top[1].ID != t2 {
		t.Fatalf("topK = %v", top)
	}
}

func TestAssembleErrors(t *testing.T) {
	t1 := tx(0, 1)
	for _, tc := range []struct {
		name   string
		events []obs.Event
		want   string
	}{
		{"duplicate begin", []obs.Event{
			{Time: 1, Kind: obs.KTxnBegin, Txn: t1, A: obs.TxnRead},
			{Time: 2, Kind: obs.KTxnBegin, Txn: t1, A: obs.TxnRead},
		}, "duplicate begin"},
		{"hop unknown", []obs.Event{
			{Time: 1, Kind: obs.KTxnHop, Txn: t1},
		}, "hop for unknown transaction"},
		{"end unknown", []obs.Event{
			{Time: 1, Kind: obs.KTxnEnd, Txn: t1},
		}, "end for unknown transaction"},
		{"duplicate end", []obs.Event{
			{Time: 1, Kind: obs.KTxnBegin, Txn: t1, A: obs.TxnRead},
			{Time: 2, Kind: obs.KTxnEnd, Txn: t1},
			{Time: 3, Kind: obs.KTxnEnd, Txn: t1},
		}, "duplicate end"},
	} {
		_, err := Assemble(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestBreakdown(t *testing.T) {
	t1 := tx(0, 1)
	events := []obs.Event{
		{Time: 100, Kind: obs.KTxnBegin, Node: 0, Item: 1, Txn: t1, A: obs.TxnRead, B: 10},
		{Time: 110, Kind: obs.KTxnHop, Node: 1, Item: 1, Txn: t1, A: int64(proto.MsgReadReq), B: 8},
		{Time: 130, Kind: obs.KTxnHop, Node: 0, Item: 1, Txn: t1, A: int64(proto.MsgDataReply), B: 5},
		{Time: 140, Kind: obs.KTxnEnd, Node: 0, Item: 1, Txn: t1, A: obs.FillRemote, B: 50},
		// Fire-and-forget delivery after the end: off the critical path.
		{Time: 200, Kind: obs.KTxnHop, Node: 2, Item: 1, Txn: t1, A: int64(proto.MsgHomeUpdate), B: 4},
	}
	s, err := Assemble(events)
	if err != nil {
		t.Fatal(err)
	}
	q, n, sv, f := s.ByID[t1].Breakdown()
	// queue = begin.B; network = 8+5; service = (102-100)+(125-110);
	// fill = 140 - 130. The post-end hop contributes nothing.
	if q != 10 || n != 13 || sv != 17 || f != 10 {
		t.Fatalf("breakdown = q%d n%d s%d f%d, want q10 n13 s17 f10", q, n, sv, f)
	}
}

func TestCritPathReport(t *testing.T) {
	t1 := tx(0, 1)
	events := []obs.Event{
		{Time: 100, Kind: obs.KTxnBegin, Node: 0, Item: 1, Txn: t1, A: obs.TxnRead, B: 10},
		{Time: 140, Kind: obs.KTxnEnd, Node: 0, Item: 1, Txn: t1, A: obs.FillRemote, B: 40},
	}
	r, err := CritPath(events, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerOp[obs.TxnRead].Count != 1 || r.Latency.N != 1 || len(r.Slowest) != 1 {
		t.Fatalf("report = %+v", r)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"read", "miss latency", "slowest transactions"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("critpath report missing %q:\n%s", want, buf.String())
		}
	}
}

// cleanRound is a minimal well-formed trace: a write installs a master,
// a read downgrades it, then a checkpoint round pre-commits and commits
// the modified item.
func cleanRound() []obs.Event {
	rd := tx(1, 1)
	return []obs.Event{
		{Time: 10, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 20, Kind: obs.KTxnBegin, Node: 1, Item: 1, Txn: rd, A: obs.TxnRead, B: 0},
		{Time: 25, Kind: obs.KState, Node: 0, Item: 1, From: proto.Exclusive, To: proto.MasterShared},
		{Time: 30, Kind: obs.KState, Node: 1, Item: 1, From: proto.Invalid, To: proto.Shared},
		{Time: 35, Kind: obs.KTxnEnd, Node: 1, Item: 1, Txn: rd, A: obs.FillRemote, B: 15},
		{Time: 100, Kind: obs.KRoundBegin, Node: proto.None, Item: proto.NoItem, A: 0, B: 1},
		{Time: 110, Kind: obs.KState, Node: 0, Item: 1, From: proto.MasterShared, To: proto.PreCommit1},
		{Time: 120, Kind: obs.KRoundQuiesced, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 130, Kind: obs.KPhaseEnd, Node: 0, Item: proto.NoItem, A: int64(obs.PhaseCommit), B: 10},
		{Time: 140, Kind: obs.KCommitted, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 150, Kind: obs.KRoundEnd, Node: proto.None, Item: proto.NoItem, A: 0, B: 1},
	}
}

func TestCheckClean(t *testing.T) {
	r := Check(cleanRound())
	if !r.OK() {
		t.Fatalf("clean trace has violations: %v", r.Violations)
	}
	if r.Txns != 1 || r.Rounds != 1 {
		t.Fatalf("txns=%d rounds=%d, want 1/1", r.Txns, r.Rounds)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "invariants   ok") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

// violationCases are minimal traces that each break one invariant,
// with a fragment of the diagnostic Check must report.
var violationCases = []struct {
	name   string
	events []obs.Event
	want   string
}{
	{"state mismatch", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Shared},
		{Time: 2, Kind: obs.KState, Node: 0, Item: 1, From: proto.Exclusive, To: proto.Invalid},
	}, "but replay holds the copy in Shared"},
	{"fill from invalid copy", []obs.Event{
		{Time: 1, Kind: obs.KTxnBegin, Node: 1, Item: 9, Txn: tx(1, 1), A: obs.TxnRead},
		{Time: 5, Kind: obs.KTxnEnd, Node: 1, Item: 9, Txn: tx(1, 1), A: obs.FillRemote, B: 4},
	}, "fill from an invalid copy"},
	{"cold fill bypassing the master", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 0, Item: 9, From: proto.Invalid, To: proto.Exclusive},
		{Time: 2, Kind: obs.KTxnBegin, Node: 1, Item: 9, Txn: tx(1, 1), A: obs.TxnRead},
		{Time: 5, Kind: obs.KTxnEnd, Node: 1, Item: 9, Txn: tx(1, 1), A: obs.FillCold, B: 3},
	}, "the master was bypassed"},
	{"commit atomicity", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 2, Kind: obs.KState, Node: 0, Item: 1, From: proto.Exclusive, To: proto.PreCommit1},
		// No commit scan (KPhaseEnd) before the commit instant.
		{Time: 3, Kind: obs.KCommitted, Node: proto.None, Item: proto.NoItem, B: 1},
	}, "commit atomicity"},
	{"stale secondary recovery copy", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 1, Item: 1, From: proto.Invalid, To: proto.SharedCK2},
		{Time: 2, Kind: obs.KState, Node: 1, Item: 1, From: proto.SharedCK2, To: proto.InvCK2},
		// No commit scan on node 1 before the commit instant.
		{Time: 3, Kind: obs.KCommitted, Node: proto.None, Item: proto.NoItem, B: 1},
	}, "kept the stale InvCK2 copy on node n1 past commit"},
	{"single master", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 2, Kind: obs.KState, Node: 1, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 3, Kind: obs.KRoundQuiesced, Node: proto.None, Item: proto.NoItem, B: 1},
	}, "2 owner copies"},
	{"rollback persistence", []obs.Event{
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Shared},
		{Time: 2, Kind: obs.KRoundEnd, Node: proto.None, Item: proto.NoItem, A: 1, B: 1},
	}, "rollback left item 1 with 0 owner copies"},
}

func TestCheckViolations(t *testing.T) {
	for _, tc := range violationCases {
		r := Check(tc.events)
		found := false
		for _, v := range r.Violations {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v, want one containing %q", tc.name, r.Violations, tc.want)
		}
	}
}

// TestCheckCorruptedTrace drops the commit-scan events from a clean
// trace (the shape `comatrace check` must catch in CI) and expects a
// precise diagnostic.
func TestCheckCorruptedTrace(t *testing.T) {
	r := Check(withoutKind(cleanRound(), obs.KPhaseEnd))
	if r.OK() {
		t.Fatal("corrupted trace passed the checker")
	}
	if !strings.Contains(strings.Join(r.Violations, "\n"), "commit atomicity") {
		t.Fatalf("violations = %v", r.Violations)
	}
}

// withoutKind returns the trace with every event of kind k dropped.
func withoutKind(events []obs.Event, k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Kind != k {
			out = append(out, ev)
		}
	}
	return out
}

func TestCoverage(t *testing.T) {
	events := []obs.Event{
		// Injection installs a primary recovery copy, a write demotes it,
		// and a recovery scan restores it: three table edges, two of them
		// recovery edges.
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.SharedCK1},
		{Time: 2, Kind: obs.KState, Node: 0, Item: 1, From: proto.SharedCK1, To: proto.InvCK1},
		{Time: 3, Kind: obs.KPhaseEnd, Node: 0, Item: proto.NoItem, A: int64(obs.PhaseRecoveryScan), B: 1},
	}
	r := Coverage(events)
	if len(r.Unexpected) != 0 {
		t.Fatalf("unexpected edges: %v", r.Unexpected)
	}
	want := map[[2]proto.State]bool{
		{proto.Invalid, proto.SharedCK1}: true,
		{proto.SharedCK1, proto.InvCK1}:  true,
		{proto.InvCK1, proto.SharedCK1}:  true,
	}
	for _, e := range r.Exercised {
		delete(want, [2]proto.State{e.From, e.To})
		if e.Count != 1 {
			t.Errorf("edge %v->%v count %d, want 1", e.From, e.To, e.Count)
		}
	}
	if len(want) != 0 {
		t.Fatalf("edges not reported exercised: %v (got %v)", want, r.Exercised)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[recovery]") || !strings.Contains(out, "protocol edges exercised: 3/") {
		t.Fatalf("coverage report:\n%s", out)
	}
}

func TestCoverageUnexpectedEdge(t *testing.T) {
	events := []obs.Event{
		// Invalid -> PreCommit1 is not a protocol edge (pre-commit copies
		// only come from owner states in the create phase).
		{Time: 1, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.PreCommit1},
	}
	r := Coverage(events)
	if len(r.Unexpected) != 1 || r.Unexpected[0].To != proto.PreCommit1 {
		t.Fatalf("unexpected = %v", r.Unexpected)
	}
}
