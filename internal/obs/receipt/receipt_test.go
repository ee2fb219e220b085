package receipt

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/stats"
)

// fixedIdentity is a stable run identity for pinning receipt bytes.
func fixedIdentity() config.RunIdentity {
	return config.RunIdentity{
		Revision:     "rev-test",
		Arch:         config.KSR1(4),
		Protocol:     "ecp",
		App:          "uniform",
		Instructions: 1000,
		Seed:         7,
	}
}

// fixedResult is a canonical result payload (server.MarshalResult is
// json.Marshal over *stats.Run).
func fixedResult(t *testing.T) []byte {
	t.Helper()
	run := &stats.Run{Protocol: "ecp", App: "uniform", Nodes: 4, Cycles: 1234, Events: 5678}
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixedEvents is a tiny trace the replay checker accepts: every KState
// transition is consistent with the replayed copy state.
func fixedEvents() []obs.Event {
	return []obs.Event{
		{Time: 5, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 9, Kind: obs.KState, Node: 0, Item: 1, From: proto.Exclusive, To: proto.MasterShared},
		{Time: 9, Kind: obs.KState, Node: 1, Item: 1, From: proto.Invalid, To: proto.Shared},
	}
}

func buildFixed(t *testing.T) (Receipt, []byte, []byte) {
	t.Helper()
	result := fixedResult(t)
	r, trace, err := Build(fixedIdentity(), result, fixedEvents(), ProducerLocal)
	if err != nil {
		t.Fatal(err)
	}
	return r, result, trace
}

func TestBuildDeterministic(t *testing.T) {
	a, _, traceA := buildFixed(t)
	b, _, traceB := buildFixed(t)
	if string(a.CanonicalJSON()) != string(b.CanonicalJSON()) {
		t.Fatalf("same inputs, different receipts:\n%s\n%s", a.CanonicalJSON(), b.CanonicalJSON())
	}
	if string(traceA) != string(traceB) {
		t.Fatal("same inputs, different trace bytes")
	}
	if a.RunHash != fixedIdentity().Hash() {
		t.Fatalf("RunHash = %s, want identity hash %s", a.RunHash, fixedIdentity().Hash())
	}
	if a.SimCycles != 1234 || a.SimEvents != 5678 {
		t.Fatalf("sim totals = %d/%d, want 1234/5678", a.SimCycles, a.SimEvents)
	}
	if a.Invariants == nil || a.Invariants.Verdict != VerdictOK {
		t.Fatalf("invariants = %+v, want ok verdict", a.Invariants)
	}
	if a.VerdictLabel() != "ok" {
		t.Fatalf("VerdictLabel = %q, want ok", a.VerdictLabel())
	}
}

// TestCanonicalGolden pins the canonical encoding: field order, names
// and digest formats. If this fails because the schema deliberately
// changed, bump Schema and re-pin.
func TestCanonicalGolden(t *testing.T) {
	r, _, _ := buildFixed(t)
	const want = `{"schema":"coma-receipt/v1",` +
		`"run_hash":"` + `%RUNHASH%` + `",` +
		`"revision":"rev-test",` +
		`"producer":"local",` +
		`"result_digest":"` + `%RESULTDIGEST%` + `",` +
		`"sim_cycles":1234,"sim_events":5678,` +
		`"trace_digest":"` + `%TRACEDIGEST%` + `",` +
		`"trace_events":3,` +
		`"invariants":{"verdict":"ok","edges_exercised":3,"edges_total":35}}`
	expanded := strings.NewReplacer(
		"%RUNHASH%", fixedIdentity().Hash(),
		"%RESULTDIGEST%", Digest(fixedResult(t)),
		"%TRACEDIGEST%", Digest(TraceJSONL(fixedEvents())),
	).Replace(want)
	if got := string(r.CanonicalJSON()); got != expanded {
		t.Fatalf("canonical encoding drifted:\n got %s\nwant %s", got, expanded)
	}
}

func TestVerdictUncheckedWithoutTrace(t *testing.T) {
	result := fixedResult(t)
	r, trace, err := Build(fixedIdentity(), result, nil, "w3")
	if err != nil {
		t.Fatal(err)
	}
	if trace != nil || r.TraceDigest != "" || r.Invariants != nil {
		t.Fatalf("trace-less receipt records trace data: %s", r.CanonicalJSON())
	}
	if r.VerdictLabel() != "unchecked" {
		t.Fatalf("VerdictLabel = %q, want unchecked", r.VerdictLabel())
	}
	if err := r.Attest(Artifacts{Result: result}, nil); err != nil {
		t.Fatalf("attest of trace-less receipt: %v", err)
	}
}

func TestBuildRejectsNonCanonicalResult(t *testing.T) {
	for name, payload := range map[string]string{
		"garbage":        "not json at all",
		"unknown field":  `{"bogus_field":1}`,
		"non-canonical":  `{ "protocol": "ecp" }`,
		"trailing bytes": `{}{}`,
	} {
		if _, _, err := Build(fixedIdentity(), []byte(payload), nil, "x"); err == nil {
			t.Errorf("%s: Build accepted %q", name, payload)
		}
		if _, err := ParseResult([]byte(payload)); err == nil {
			t.Errorf("%s: ParseResult accepted %q", name, payload)
		}
	}
}

func TestSignVerify(t *testing.T) {
	r, _, _ := buildFixed(t)
	key := []byte("cluster-shared-secret")
	signed := r.Sign(key)
	if signed.Signature == "" || r.Signature != "" {
		t.Fatal("Sign must return a signed copy, leaving the original untouched")
	}
	if err := signed.VerifySignature(key); err != nil {
		t.Fatalf("genuine signature rejected: %v", err)
	}
	if err := signed.VerifySignature([]byte("wrong key")); err == nil {
		t.Fatal("wrong key accepted")
	}
	if err := r.VerifySignature(key); err == nil {
		t.Fatal("unsigned receipt verified")
	}
	tampered := signed
	tampered.SimCycles++
	if err := tampered.VerifySignature(key); err == nil {
		t.Fatal("modified receipt still verifies")
	}
	// Attest with a key covers the signature first.
	if err := tampered.Attest(Artifacts{}, key); err == nil {
		t.Fatal("attest accepted a bad signature")
	} else if fe := err.(*FieldError); fe.Field != "sig" {
		t.Fatalf("field = %q, want sig", fe.Field)
	}
}

func TestParseStrict(t *testing.T) {
	r, _, _ := buildFixed(t)
	canon := r.CanonicalJSON()
	back, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical receipt rejected: %v", err)
	}
	if string(back.CanonicalJSON()) != string(canon) {
		t.Fatal("parse/re-encode not byte-stable")
	}
	if _, err := Parse(append(canon, '\n')); err != nil {
		t.Fatalf("trailing newline rejected: %v", err)
	}
	for name, b := range map[string]string{
		"unknown field": `{"schema":"coma-receipt/v1","bogus":1}`,
		"wrong schema":  `{"schema":"coma-receipt/v9"}`,
		"non-canonical": "{ " + string(canon[1:]),
		"trailing data": string(canon) + "{}",
	} {
		if _, err := Parse([]byte(b)); err == nil {
			t.Errorf("%s: accepted %q", name, b)
		}
	}
}

// TestAttestTamper is the tampering table: flipping one byte in the
// result artifact, the trace artifact, or the receipt's recorded
// digests must fail attestation naming the divergent field.
func TestAttestTamper(t *testing.T) {
	r, result, trace := buildFixed(t)
	if err := r.Attest(Artifacts{Result: result, Trace: trace}, nil); err != nil {
		t.Fatalf("genuine receipt failed attestation: %v", err)
	}

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	cases := []struct {
		name  string
		arts  Artifacts
		rcpt  Receipt
		field string
	}{
		{"result byte flipped", Artifacts{Result: flip(result, len(result)/2), Trace: trace}, r, "result_digest"},
		{"trace byte flipped", Artifacts{Result: result, Trace: flip(trace, len(trace)/2)}, r, "trace_digest"},
		{"receipt result_digest tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt { c := r; c.ResultDigest = "0" + c.ResultDigest[1:]; return c }(), "result_digest"},
		{"receipt trace_digest tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt { c := r; c.TraceDigest = "0" + c.TraceDigest[1:]; return c }(), "trace_digest"},
		{"receipt sim_cycles tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt { c := r; c.SimCycles++; return c }(), "sim_cycles"},
		{"receipt sim_events tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt { c := r; c.SimEvents++; return c }(), "sim_events"},
		{"receipt trace_events tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt { c := r; c.TraceEvents++; return c }(), "trace_events"},
		{"receipt verdict tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt {
				c := r
				inv := *c.Invariants
				inv.Verdict = VerdictViolated
				c.Invariants = &inv
				return c
			}(), "invariants.verdict"},
		{"receipt edge count tampered", Artifacts{Result: result, Trace: trace},
			func() Receipt {
				c := r
				inv := *c.Invariants
				inv.EdgesExercised++
				c.Invariants = &inv
				return c
			}(), "invariants.edges_exercised"},
		{"trace supplied to trace-less receipt", Artifacts{Result: result, Trace: trace},
			func() Receipt {
				c := r
				c.TraceDigest, c.TraceEvents, c.Invariants = "", 0, nil
				return c
			}(), "trace_digest"},
	}
	for _, tc := range cases {
		err := tc.rcpt.Attest(tc.arts, nil)
		if err == nil {
			t.Errorf("%s: attestation passed", tc.name)
			continue
		}
		fe, ok := err.(*FieldError)
		if !ok {
			t.Errorf("%s: error %v is not a *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: named field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

// TestGateEmitZeroAlloc pins the gate's steady state: once its fold has
// seen an item and a transaction, emitting an event — encoded, hashed,
// written to the trace sink, replayed, or masked out — allocates
// nothing.
func TestGateEmitZeroAlloc(t *testing.T) {
	g := NewGate(io.Discard)
	txn := proto.MakeTxnID(1, 1)
	g.Emit(obs.Event{Time: 1, Kind: obs.KTxnBegin, Node: 1, Item: 2, Txn: txn, A: obs.TxnRead})
	cycle := []obs.Event{
		{Time: 2, Kind: obs.KState, Node: 0, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 3, Kind: obs.KTxnHop, Node: 0, Item: 2, Txn: txn, A: int64(proto.MsgReadReq), B: 4},
		{Time: 4, Kind: obs.KRoundBegin, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 5, Kind: obs.KRoundQuiesced, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 6, Kind: obs.KPhaseEnd, Node: 0, Item: proto.NoItem, A: int64(obs.PhaseCommit), B: 1},
		{Time: 7, Kind: obs.KCommitted, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 8, Kind: obs.KRoundEnd, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 9, Kind: obs.KInjectProbe, Node: 0, Item: 1, A: 1},
		{Time: 10, Kind: obs.KQueueDepth, Node: proto.None, Item: proto.NoItem, A: 3, B: 2},
		{Time: 11, Kind: obs.KState, Node: 0, Item: 1, From: proto.Exclusive, To: proto.Invalid},
	}
	for _, ev := range cycle { // warm the fold's maps
		g.Emit(ev)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		g.Emit(cycle[i%len(cycle)])
		i++
	}); allocs != 0 {
		t.Fatalf("Gate.Emit allocates %.1f per event once warmed, want 0", allocs)
	}
	if s := g.fold.Summary(); !s.OK {
		t.Fatalf("the emitted cycle broke an invariant: %+v", s)
	}
}
