package receipt_test

import (
	"bytes"
	"testing"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/server"
)

// gateRun runs the identity once with a new gate and a full-mask
// Recorder on the same event stream, returning the gate's receipt and
// packed trace, the recorder's events and the result payload.
func gateRun(t testing.TB, id config.RunIdentity, newGate func() *receipt.Gate) (receipt.Receipt, []byte, []obs.Event, []byte) {
	t.Helper()
	gate := newGate()
	rec := obs.NewRecorder(obs.MaskAll)
	run, err := server.SimRunner(id, server.RunOptions{Observer: obs.Tee(gate, rec)})
	if err != nil {
		t.Fatal(err)
	}
	result, err := server.MarshalResult(run)
	if err != nil {
		t.Fatal(err)
	}
	r, trace, err := gate.Finish(id, result, receipt.ProducerLocal)
	if err != nil {
		t.Fatal(err)
	}
	return r, trace, rec.Events(), result
}

// TestGateMatchesBuildOnRecordedRuns: on real ECP runs with a transient
// and with a permanent failure (5 nodes: the smallest ECP machine that
// survives losing one), the streaming gate emits exactly the receipt
// and trace bytes Build produces over a receipt-mask recording. The
// trace fields are pinned to what the record-then-replay gate produced
// before the gate streamed; the gate's packed log expands to the
// canonical JSONL of the masked events. A digest gate, which keeps no
// trace, emits the same receipt.
func TestGateMatchesBuildOnRecordedRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		perm   bool
		digest string
		events int64
		edges  int
	}{
		{"transient", 4, false, "3e59d0d97cd1d118153759db7c5259f3c9b0652c65d4cfb4ea2085165896f3b0", 31128, 21},
		{"permanent", 5, true, "0043525ded3f8fe6dc471a4c94e6bc5386acc456146e7aafe4978c35fbfe9699", 29525, 21},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := server.JobSpec{App: "mp3d", Protocol: "ecp", Nodes: tc.nodes, Scale: 0.002, Seed: 1, CheckpointHz: 400,
				Failures: []config.FailureEvent{{At: 40000, Node: 2, Permanent: tc.perm}}}
			id, err := spec.Identity("rev-fixed")
			if err != nil {
				t.Fatal(err)
			}
			got, packed, all, result := gateRun(t, id, receipt.NewGate)
			trace := expand(t, packed)

			var masked []obs.Event
			for _, ev := range all {
				if receipt.TraceMask.Has(ev.Kind) {
					masked = append(masked, ev)
				}
			}
			want, wantTrace, err := receipt.Build(id, result, masked, receipt.ProducerLocal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.CanonicalJSON(), want.CanonicalJSON()) {
				t.Fatalf("gate receipt differs from Build:\n%s\n%s", got.CanonicalJSON(), want.CanonicalJSON())
			}
			if !bytes.Equal(trace, wantTrace) || !bytes.Equal(trace, receipt.TraceJSONL(masked)) {
				t.Fatal("expanded gate trace differs from Build's / obs.WriteJSONL's")
			}
			if cap(packed) != len(packed) {
				t.Fatalf("gate packed trace: len %d, cap %d; want exact size", len(packed), cap(packed))
			}
			if got.TraceDigest != tc.digest || got.TraceEvents != tc.events ||
				got.VerdictLabel() != "ok" || got.Invariants.EdgesExercised != tc.edges || got.Invariants.EdgesTotal != 35 {
				t.Fatalf("receipt trace fields drifted: %s", got.CanonicalJSON())
			}
			if err := got.Attest(receipt.Artifacts{Result: result, Trace: trace}, nil); err != nil {
				t.Fatalf("gate receipt fails attestation: %v", err)
			}
			digestOnly, noTrace, _, _ := gateRun(t, id, receipt.NewDigestGate)
			if !bytes.Equal(digestOnly.CanonicalJSON(), got.CanonicalJSON()) || noTrace != nil {
				t.Fatalf("digest gate: receipt %s and %d trace bytes, want the gate's receipt and no trace",
					digestOnly.CanonicalJSON(), len(noTrace))
			}
		})
	}
}

// expand returns the canonical JSONL a packed trace expands to.
func expand(t testing.TB, packed []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.UnpackJSONL(&buf, packed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveColdSpec is the cold job of the serve-local benchmark workload.
var serveColdSpec = server.JobSpec{App: "mp3d", Protocol: "ecp", Nodes: 4, Instructions: 200_000, CheckpointHz: 400}

// TestPackedTraceIsSmall: the packed log the gate keeps for a served
// cold job is at most 9 bytes an event and 0.12 of the canonical JSONL
// it expands to, which is what lets a daemon keep one beside every
// receipt. The codec packs this job at 8.0 B/event, 0.106, so a
// regression in any of its fields shows.
func TestPackedTraceIsSmall(t *testing.T) {
	id, err := serveColdSpec.Identity("rev-fixed")
	if err != nil {
		t.Fatal(err)
	}
	r, packed, _, _ := gateRun(t, id, receipt.NewGate)
	jsonl := expand(t, packed)
	ratio := float64(len(packed)) / float64(len(jsonl))
	t.Logf("%d events: packed %d bytes (%.1f B/event), JSONL %d bytes, ratio %.3f",
		r.TraceEvents, len(packed), float64(len(packed))/float64(r.TraceEvents), len(jsonl), ratio)
	if perEvent := float64(len(packed)) / float64(r.TraceEvents); perEvent > 9 || ratio > 0.12 {
		t.Fatalf("packed trace is %.2f B/event, %.3f of its JSONL; want at most 9 B/event and 0.12", perEvent, ratio)
	}
}

// BenchmarkGate streams one served cold job's events (mp3d, ECP, 4
// nodes, 200k instructions, 400 Hz) through a fresh gate and finishes
// the receipt: the whole per-job cost of the always-on gate. The digest
// gate is the one comad and cluster workers run; the packing gate,
// which also keeps the trace, serves /trace replays and comasim.
func BenchmarkGate(b *testing.B) {
	id, err := serveColdSpec.Identity("rev-fixed")
	if err != nil {
		b.Fatal(err)
	}
	_, _, events, result := gateRun(b, id, receipt.NewGate)
	for _, g := range []struct {
		name    string
		newGate func() *receipt.Gate
	}{{"digest", receipt.NewDigestGate}, {"packing", receipt.NewGate}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				gate := g.newGate()
				for _, ev := range events {
					gate.Emit(ev)
				}
				if _, _, err := gate.Finish(id, result, receipt.ProducerLocal); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(events)), "events/op")
		})
	}
}
