package receipt_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/server"
)

// gateRun runs the identity once with a gate streaming its trace into
// a buffer and a full-mask Recorder on the same event stream, returning
// the gate's receipt and trace, the recorder's events and the result
// payload.
func gateRun(t testing.TB, id config.RunIdentity) (receipt.Receipt, []byte, []obs.Event, []byte) {
	t.Helper()
	var trace bytes.Buffer
	gate := receipt.NewGate(&trace)
	rec := obs.NewRecorder(obs.MaskAll)
	run, err := server.SimRunner(id, server.RunOptions{Observer: obs.Tee(gate, rec)})
	if err != nil {
		t.Fatal(err)
	}
	result, err := server.MarshalResult(run)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gate.Finish(id, result, receipt.ProducerLocal)
	if err != nil {
		t.Fatal(err)
	}
	return r, trace.Bytes(), rec.Events(), result
}

// TestGateMatchesBuildOnRecordedRuns: on real ECP runs with a transient
// and with a permanent failure (5 nodes: the smallest ECP machine that
// survives losing one), the streaming gate emits exactly the receipt
// and trace bytes Build produces over a receipt-mask recording, and the
// trace is the canonical JSONL of the masked events. The trace fields
// are pinned to what the record-then-replay gate produced before the
// gate streamed.
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
			got, trace, all, result := gateRun(t, id)

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
				t.Fatal("streamed gate trace differs from Build's / obs.WriteJSONL's")
			}
			if got.TraceDigest != tc.digest || got.TraceEvents != tc.events ||
				got.VerdictLabel() != "ok" || got.Invariants.EdgesExercised != tc.edges || got.Invariants.EdgesTotal != 35 {
				t.Fatalf("receipt trace fields drifted: %s", got.CanonicalJSON())
			}
			if err := got.Attest(receipt.Artifacts{Result: result, Trace: trace}, nil); err != nil {
				t.Fatalf("gate receipt fails attestation: %v", err)
			}
		})
	}
}

// failAfter is a trace sink whose writes fail once n bytes are in.
type failAfter struct {
	n, got, fails int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.got+len(p) > w.n {
		w.fails++
		return 0, errors.New("sink full")
	}
	w.got += len(p)
	return len(p), nil
}

// TestGateSinkErrorKeepsHashing: a gate whose sink fails part way gets
// no write after the first error, and its Finish reports that error
// beside the receipt a gate with no sink emits.
func TestGateSinkErrorKeepsHashing(t *testing.T) {
	id, err := serveColdSpec.Identity("rev-fixed")
	if err != nil {
		t.Fatal(err)
	}
	want, _, events, result := gateRun(t, id)
	finish := func(sink io.Writer) (receipt.Receipt, error) {
		g := receipt.NewGate(sink)
		for _, ev := range events {
			g.Emit(ev)
		}
		return g.Finish(id, result, receipt.ProducerLocal)
	}
	if got, err := finish(nil); err != nil || !bytes.Equal(got.CanonicalJSON(), want.CanonicalJSON()) {
		t.Fatalf("gate without a sink: %v, receipt %s; want %s", err, got.CanonicalJSON(), want.CanonicalJSON())
	}
	sink := &failAfter{n: 200 << 10}
	got, err := finish(sink)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("Finish with a failed sink: err %v, want the sink's error", err)
	}
	if !bytes.Equal(got.CanonicalJSON(), want.CanonicalJSON()) {
		t.Fatalf("receipt beside the sink error: %s, want %s", got.CanonicalJSON(), want.CanonicalJSON())
	}
	if sink.got == 0 || sink.fails != 1 {
		t.Fatalf("failing sink: %d bytes in, %d failed writes; want some bytes and one failed write", sink.got, sink.fails)
	}
}

// serveColdSpec is the cold job of the serve-local benchmark workload.
var serveColdSpec = server.JobSpec{App: "mp3d", Protocol: "ecp", Nodes: 4, Instructions: 200_000, CheckpointHz: 400}

// BenchmarkGate streams one served cold job's events (mp3d, ECP, 4
// nodes, 200k instructions, 400 Hz) through a fresh gate and finishes
// the receipt: the whole per-job cost of the always-on gate. The
// digest gate, with no trace sink, is the one comad and cluster workers
// run; the streaming gate, which also writes the trace, serves /trace
// replays and comasim.
func BenchmarkGate(b *testing.B) {
	id, err := serveColdSpec.Identity("rev-fixed")
	if err != nil {
		b.Fatal(err)
	}
	_, _, events, result := gateRun(b, id)
	for _, g := range []struct {
		name  string
		trace io.Writer
	}{{"digest", nil}, {"streaming", io.Discard}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				gate := receipt.NewGate(g.trace)
				for _, ev := range events {
					gate.Emit(ev)
				}
				if _, err := gate.Finish(id, result, receipt.ProducerLocal); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(events)), "events/op")
		})
	}
}
