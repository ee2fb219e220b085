package txnview

import (
	"bytes"
	"reflect"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/workload"
)

// requireMatchesReference fails unless Fold-backed Summarize, Check and
// Coverage report exactly what the two-pass reference replay reports.
func requireMatchesReference(t *testing.T, events []obs.Event) {
	t.Helper()
	if got, want := Summarize(events), refSummarize(events); got != want {
		t.Fatalf("Summarize = %+v, reference %+v", got, want)
	}
	if got, want := Check(events), refCheck(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("Check differs from the reference:\n got  %+v\n want %+v", got, want)
	}
	if got, want := Coverage(events), refCoverage(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("Coverage differs from the reference:\n got  %+v\n want %+v", got, want)
	}
}

func encodeJSONL(t testing.TB, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSummarizeMatchesReference: for every trace ReadJSONL accepts, the
// one-pass fold agrees with the reference replay on every report.
func FuzzSummarizeMatchesReference(f *testing.F) {
	f.Add(encodeJSONL(f, cleanRound()))
	f.Add(encodeJSONL(f, withoutKind(cleanRound(), obs.KPhaseEnd)))
	for _, tc := range violationCases {
		f.Add(encodeJSONL(f, tc.events))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireMatchesReference(t, events)
	})
}

// receiptMask mirrors receipt.TraceMask (not importable here: receipt
// imports this package): every kind but the two sampling kinds.
const receiptMask = obs.MaskAll &^ (1<<obs.KQueueDepth | 1<<obs.KInjectProbe)

// recordRun runs mp3d under the ECP and returns its receipt-grade trace.
func recordRun(t testing.TB, nodes int, scale float64, failures ...config.FailureEvent) []obs.Event {
	t.Helper()
	rec := obs.NewRecorder(receiptMask)
	m, err := machine.New(machine.Config{
		Arch:         config.KSR1(nodes),
		Protocol:     coherence.ECP,
		App:          workload.Mp3d().Scale(scale),
		Seed:         1,
		CheckpointHz: 400,
		Failures:     failures,
		Obs:          rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) > 0 && res.Ckpt.Recoveries == 0 {
		t.Fatal("the failure never fired: no rollback")
	}
	return rec.Events()
}

// TestFoldMatchesReferenceOnRecordedRuns replays real ECP traces with a
// transient and with a permanent failure (5 nodes: the smallest ECP
// machine that survives losing one), clean and corrupted three ways,
// through both the fold and the reference.
func TestFoldMatchesReferenceOnRecordedRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		fail  config.FailureEvent
	}{
		{"transient", 4, config.FailureEvent{At: 40000, Node: 2}},
		{"permanent", 5, config.FailureEvent{At: 40000, Node: 2, Permanent: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := recordRun(t, tc.nodes, 0.002, tc.fail)
			if s := Summarize(events); !s.OK {
				t.Fatalf("recorded run fails its own check: %+v\n%v", s, Check(events).Violations)
			}
			requireMatchesReference(t, events)

			// Missing commit scans: many commit-atomicity violations,
			// past the 20-message cap.
			requireMatchesReference(t, withoutKind(events, obs.KPhaseEnd))
			// Truncated at the front: hops and ends for unknown
			// transactions, and state records the replay contradicts.
			requireMatchesReference(t, events[len(events)/3:])
			// A duplicated transaction end.
			for i, ev := range events {
				if ev.Kind == obs.KTxnEnd {
					dup := append(append(append([]obs.Event(nil), events[:i+1]...), ev), events[i+1:]...)
					requireMatchesReference(t, dup)
					break
				}
			}
		})
	}
}

// servedColdTrace records the trace of one serve-local cold job shape:
// mp3d, ECP, 4 nodes, 200k instructions, 400 Hz.
func servedColdTrace(t testing.TB) []obs.Event {
	return recordRun(t, 4, 200_000/float64(workload.Mp3d().Instructions))
}

// TestSummarizeAllocs pins the fold's allocation budget on a served
// cold job's trace: a state change allocates nothing once the maps have
// grown, so the whole ≈39k-event replay stays under 2,000 objects.
func TestSummarizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full served-job trace")
	}
	events := servedColdTrace(t)
	if len(events) < 30_000 {
		t.Fatalf("trace has %d events, want a served cold job's ≈39k", len(events))
	}
	if allocs := testing.AllocsPerRun(3, func() { Summarize(events) }); allocs >= 2000 {
		t.Fatalf("Summarize over %d events allocates %.0f objects, want < 2000", len(events), allocs)
	}
}

func BenchmarkSummarize(b *testing.B) {
	events := servedColdTrace(b)
	b.ReportAllocs()
	for b.Loop() {
		Summarize(events)
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// TestFoldStatesStayTallied cross-checks the fold's per-item and
// per-state tallies against its copy map after a recorded run.
func TestFoldStatesStayTallied(t *testing.T) {
	f := NewFold()
	for _, ev := range recordRun(t, 4, 0.002, config.FailureEvent{At: 40000, Node: 2}) {
		f.Step(ev)
	}
	var inState [proto.NumStates]int
	items := map[proto.ItemID]itemTally{}
	for k, st := range f.copies {
		inState[st]++
		tl := items[k.item]
		tl.copies++
		if st.Owner() {
			tl.owners++
		}
		items[k.item] = tl
	}
	if inState != f.inState {
		t.Fatalf("per-state tally %v, copy map says %v", f.inState, inState)
	}
	if !reflect.DeepEqual(items, f.items) {
		t.Fatalf("per-item tallies (%d items) disagree with the copy map (%d items)", len(f.items), len(items))
	}
}
