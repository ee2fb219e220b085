package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/proto"
	"coma/internal/stats"
	"coma/internal/workload"
)

// jsonl is WriteJSONL's output for events.
func jsonl(tb testing.TB, events []obs.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recordRun records the full event stream of a short mp3d ECP run with
// one failure (5 nodes, so a permanent failure leaves a machine that
// can recover).
func recordRun(tb testing.TB, permanent bool) []obs.Event {
	tb.Helper()
	rec := obs.NewRecorder(obs.MaskAll)
	m, err := machine.New(machine.Config{
		Arch:         config.KSR1(5),
		Protocol:     coherence.ECP,
		App:          workload.Mp3d().Scale(0.002),
		Seed:         1,
		CheckpointHz: 400,
		Failures:     []config.FailureEvent{{At: 40000, Node: 2, Permanent: permanent}},
		Obs:          rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	return rec.Events()
}

// txnExtremes are TxnIDs at the edges of the TxnID layout: the
// coordinator's first and last sequence numbers, the highest origin's,
// and IDs no node could mint (negative, or just above the highest
// origin).
var txnExtremes = []proto.TxnID{
	1, 1<<proto.TxnSeqBits - 1,
	proto.MakeTxnID(math.MaxInt16, 1), proto.MakeTxnID(math.MaxInt16, 1<<proto.TxnSeqBits-1),
	-1, math.MinInt64, math.MaxInt64, (math.MaxInt16 + 2) << proto.TxnSeqBits,
}

// txnExtremeEvents is a txn-begin and an inject-accept for each of
// txnExtremes, with a parent at the far end of the list.
func txnExtremeEvents() []obs.Event {
	var events []obs.Event
	for i, t := range txnExtremes {
		par := txnExtremes[len(txnExtremes)-1-i]
		events = append(events,
			obs.Event{Time: int64(i), Kind: obs.KTxnBegin, Node: 1, Item: 2, Txn: t, Par: par, A: 1},
			obs.Event{Time: int64(i), Kind: obs.KInjectAccept, Node: 1, Item: 2, Txn: t, B: 3})
	}
	return events
}

// damaged is a JSONL log with its last line's closing brace and newline
// cut off: a log ReadJSONL must reject.
func damaged(log []byte) []byte { return log[:len(log)-2] }

// sinkWrites records each write a trace sink receives.
type sinkWrites struct {
	all    bytes.Buffer
	writes [][]byte
}

func (s *sinkWrites) Write(p []byte) (int, error) {
	s.all.Write(p)
	s.writes = append(s.writes, bytes.Clone(p))
	return len(p), nil
}

// chunkSize is the receipt gate's JSONL chunk: no sink write is larger.
const chunkSize = 64 << 10

// FuzzPackedTraceRoundTrip pins the receipt trace path: every JSONL log
// ReadJSONL accepts, emitted event by event (and repeated until the
// trace spans more than two chunks) into a receipt gate with a sink,
// must reach the sink as exactly the canonical JSONL of the events in
// receipt.TraceMask, in writes of whole lines no larger than one chunk,
// and the receipt's trace digest and event count must describe those
// bytes. The name and seed corpus are the packed trace codec's, which
// the streaming gate replaced: the FuzzJSONLRoundTrip corpus, txn IDs
// at and past the origin range, and windows of recorded runs, each
// whole and damaged.
func FuzzPackedTraceRoundTrip(f *testing.F) {
	for _, line := range obs.JSONLSeedLines(f) {
		f.Add([]byte(line + "\n"))
	}
	f.Add(jsonl(f, obs.SampleEvents()))
	f.Add(damaged(jsonl(f, obs.SampleEvents())))
	f.Add(jsonl(f, txnExtremeEvents()))
	f.Add(damaged(jsonl(f, txnExtremeEvents())))
	for _, permanent := range []bool{false, true} {
		events := recordRun(f, permanent)
		// A window from the first event of each kind covers every
		// line shape without seeding megabyte inputs.
		seen := map[obs.Kind]bool{}
		for i, ev := range events {
			if seen[ev.Kind] {
				continue
			}
			seen[ev.Kind] = true
			w := events[i:min(i+32, len(events))]
			f.Add(jsonl(f, w))
			f.Add(damaged(jsonl(f, w)))
		}
	}
	result, err := json.Marshal(&stats.Run{})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected input: no trace to stream
		}
		var kept []obs.Event
		for _, ev := range events {
			if receipt.TraceMask.Has(ev.Kind) {
				kept = append(kept, ev)
			}
		}
		reps := 1
		if n := len(jsonl(t, kept)); n > 0 {
			reps = 2*chunkSize/n + 1
		}
		var sink sinkWrites
		g := receipt.NewGate(&sink)
		var want []obs.Event
		for range reps {
			for _, ev := range events {
				g.Emit(ev)
			}
			want = append(want, kept...)
		}
		r, err := g.Finish(config.RunIdentity{}, result, receipt.ProducerLocal)
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if wantTrace := jsonl(t, want); !bytes.Equal(sink.all.Bytes(), wantTrace) {
			t.Fatalf("gate streamed %d bytes that differ from the %d bytes of canonical JSONL", sink.all.Len(), len(wantTrace))
		}
		for i, w := range sink.writes {
			if len(w) > chunkSize || len(w) == 0 || w[len(w)-1] != '\n' {
				t.Fatalf("sink write %d is %d bytes ending %q: want whole lines, at most one chunk", i, len(w), w[max(0, len(w)-1):])
			}
		}
		if len(want) == 0 {
			if r.TraceDigest != "" || r.TraceEvents != 0 || len(sink.writes) != 0 {
				t.Fatalf("no trace event, but receipt has digest %q over %d events and the sink got %d writes", r.TraceDigest, r.TraceEvents, len(sink.writes))
			}
			return
		}
		if r.TraceDigest != receipt.Digest(sink.all.Bytes()) || r.TraceEvents != int64(len(want)) {
			t.Fatalf("receipt has digest %s over %d events; the sink got %s over %d", r.TraceDigest, r.TraceEvents, receipt.Digest(sink.all.Bytes()), len(want))
		}
	})
}
