package proto

import (
	"strings"
	"testing"
)

func TestStatePredicates(t *testing.T) {
	cases := []struct {
		st                                      State
		readable, writable, owner, recovery, ck bool
	}{
		{Invalid, false, false, false, false, false},
		{Shared, true, false, false, false, false},
		{MasterShared, true, false, true, false, false},
		{Exclusive, true, true, true, false, false},
		{SharedCK1, true, false, true, true, true},
		{SharedCK2, true, false, false, true, true},
		{InvCK1, false, false, false, true, true},
		{InvCK2, false, false, false, true, true},
		{PreCommit1, false, false, true, true, false},
		{PreCommit2, false, false, false, true, false},
	}
	for _, c := range cases {
		if c.st.Readable() != c.readable {
			t.Errorf("%v.Readable() = %v", c.st, c.st.Readable())
		}
		if c.st.Writable() != c.writable {
			t.Errorf("%v.Writable() = %v", c.st, c.st.Writable())
		}
		if c.st.Owner() != c.owner {
			t.Errorf("%v.Owner() = %v", c.st, c.st.Owner())
		}
		if c.st.Recovery() != c.recovery {
			t.Errorf("%v.Recovery() = %v", c.st, c.st.Recovery())
		}
		if c.st.CheckpointCommitted() != c.ck {
			t.Errorf("%v.CheckpointCommitted() = %v", c.st, c.st.CheckpointCommitted())
		}
	}
}

func TestReplaceableIsExactlyInvalidAndShared(t *testing.T) {
	for st := Invalid; st < NumStates; st++ {
		want := st == Invalid || st == Shared
		if st.Replaceable() != want {
			t.Errorf("%v.Replaceable() = %v", st, st.Replaceable())
		}
	}
}

func TestModifiedIsExactlyMasters(t *testing.T) {
	for st := Invalid; st < NumStates; st++ {
		want := st == Exclusive || st == MasterShared
		if st.Modified() != want {
			t.Errorf("%v.Modified() = %v", st, st.Modified())
		}
	}
}

func TestPartnerIsInvolutive(t *testing.T) {
	pairs := []State{SharedCK1, SharedCK2, InvCK1, InvCK2, PreCommit1, PreCommit2}
	for _, st := range pairs {
		if st.Partner().Partner() != st {
			t.Errorf("%v.Partner().Partner() = %v", st, st.Partner().Partner())
		}
		if st.Partner() == st {
			t.Errorf("%v pairs with itself", st)
		}
		if st.Primary() == st.Partner().Primary() {
			t.Errorf("%v and partner have the same primacy", st)
		}
	}
}

func TestPartnerPanicsForNonRecovery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Partner of Shared did not panic")
		}
	}()
	Shared.Partner()
}

func TestStateStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for st := Invalid; st < NumStates; st++ {
		s := st.String()
		if s == "" || strings.HasPrefix(s, "State(") {
			t.Errorf("state %d has no name", st)
		}
		if seen[s] {
			t.Errorf("duplicate state name %q", s)
		}
		seen[s] = true
	}
}

func TestMsgKindStringsAndCarry(t *testing.T) {
	for k := MsgKind(0); k < numMsgKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "MsgKind(") {
			t.Errorf("message kind %d has no name", k)
		}
	}
	if !MsgDataReply.Carry() || !MsgInjectData.Carry() {
		t.Error("data-bearing kinds not marked Carry")
	}
	if MsgReadReq.Carry() || MsgInvalidate.Carry() || MsgColdGrant.Carry() {
		t.Error("control kinds marked Carry")
	}
}

func TestInjectCauseClassification(t *testing.T) {
	if !InjectReadInvCK.OnRead() || InjectReadInvCK.OnWrite() {
		t.Error("read cause misclassified")
	}
	for _, c := range []InjectCause{InjectWriteInvCK, InjectWriteSharedCK} {
		if !c.OnWrite() || c.OnRead() {
			t.Errorf("%v misclassified", c)
		}
	}
	for _, c := range []InjectCause{InjectReplaceMaster, InjectCheckpoint, InjectReconfigure} {
		if c.OnRead() || c.OnWrite() {
			t.Errorf("%v misclassified as access-triggered", c)
		}
	}
	for c := InjectCause(0); c < NumInjectCauses; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "InjectCause(") {
			t.Errorf("cause %d has no name", c)
		}
	}
}

func TestNodeIDBasics(t *testing.T) {
	if None.Valid() {
		t.Error("None is valid")
	}
	if !NodeID(0).Valid() || !NodeID(55).Valid() {
		t.Error("real nodes invalid")
	}
	if None.String() != "none" || NodeID(3).String() != "n3" {
		t.Errorf("strings: %q %q", None.String(), NodeID(3).String())
	}
}

// TestECPEdges pins the specification's edge set: 35 distinct pairs in
// strictly ascending (From, To) order, none of them a self-loop, each
// one a pair ECPTransitions lists.
func TestECPEdges(t *testing.T) {
	es := ECPEdges()
	if len(es) != 35 {
		t.Fatalf("spec has %d unique edges, want 35", len(es))
	}
	listed := make(map[Edge]bool)
	for _, tr := range ECPTransitions() {
		listed[Edge{tr.From, tr.To}] = true
	}
	for i, e := range es {
		if e.From == e.To {
			t.Errorf("self-loop %v", e)
		}
		if !listed[e] {
			t.Errorf("%v is not in ECPTransitions", e)
		}
		if i > 0 && es[i-1].Compare(e) >= 0 {
			t.Errorf("%v does not sort after %v", e, es[i-1])
		}
	}
	if got := (Edge{SharedCK2, SharedCK1}).String(); got != "SharedCK2 -> SharedCK1" {
		t.Errorf("String = %q", got)
	}
	if (Edge{Invalid, Shared}).Recovery() || !(Edge{Exclusive, PreCommit1}).Recovery() {
		t.Error("Recovery misclassifies an edge")
	}
}
