package obs_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/workload"
)

// pack packs events as one log.
func pack(events []obs.Event) []byte {
	var p obs.Packer
	var buf []byte
	for i := range events {
		buf = p.Append(buf, &events[i])
	}
	return buf
}

// jsonl is WriteJSONL's output for events.
func jsonl(tb testing.TB, events []obs.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// requireRoundTrip requires the packed log of events to expand to
// exactly their canonical JSONL.
func requireRoundTrip(tb testing.TB, events []obs.Event) {
	tb.Helper()
	var got bytes.Buffer
	if err := obs.UnpackJSONL(&got, pack(events)); err != nil {
		tb.Fatalf("unpacking a packed log: %v", err)
	}
	if want := jsonl(tb, events); !bytes.Equal(got.Bytes(), want) {
		tb.Fatalf("packed log expands to\n%s\nwant\n%s", got.Bytes(), want)
	}
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

func TestPackedRoundTripOnRecordedRuns(t *testing.T) {
	for _, permanent := range []bool{false, true} {
		events := recordRun(t, permanent)
		seen := map[obs.Kind]bool{}
		for _, ev := range events {
			seen[ev.Kind] = true
		}
		if len(seen) < obs.NumKinds-1 {
			t.Fatalf("recorded run has %d of %d event kinds", len(seen), obs.NumKinds)
		}
		requireRoundTrip(t, events)
	}
}

// txnExtremes are TxnIDs at the edges of the packed txn field: the
// coordinator's first and last sequence numbers, the highest origin's,
// and IDs no node could mint (negative, or just above the highest
// origin), which go to the escape slot.
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

// TestPackedExtremes: every kind with extreme field values (time, item
// and txn deltas that wrap or span their field, the widest node) stays
// within MaxPackedLen and round-trips, and the widest event is the one
// MaxPackedLen's comment adds up.
func TestPackedExtremes(t *testing.T) {
	events := txnExtremeEvents()
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		for _, x := range []int64{math.MinInt64, math.MaxInt64} {
			// Each wide event follows one at time 0, item NoItem on the
			// same node and escaped txn -1, so every delta spans its
			// field.
			events = append(events, obs.Event{Kind: k, Node: math.MaxInt16, Item: proto.NoItem, Txn: -1, Par: 1},
				obs.Event{
					Time: x, Kind: k, Node: math.MaxInt16, Item: math.MaxInt32,
					From: proto.NumStates - 1, To: proto.NumStates - 1, Cause: proto.NumInjectCauses - 1,
					Txn: proto.TxnID(x), Par: -1, A: math.MinInt64, B: math.MinInt64,
				},
				obs.Event{Time: -x, Kind: k, Node: proto.None, Item: proto.NoItem, Txn: proto.TxnID(-x), Par: proto.TxnID(x)})
		}
	}
	var p obs.Packer
	widest := 0
	for i := range events {
		n := len(p.Append(nil, &events[i]))
		if n > obs.MaxPackedLen {
			t.Fatalf("%v event packs to %d bytes, over MaxPackedLen %d", events[i].Kind, n, obs.MaxPackedLen)
		}
		widest = max(widest, n)
	}
	if widest != 62 {
		t.Fatalf("widest event packs to %d bytes, want the 62 MaxPackedLen's comment adds up", widest)
	}
	requireRoundTrip(t, events)
}

// TestUnpackRejectsDamage: damaged logs, and encodings the packer never
// writes, are errors naming the event and what is wrong with it.
func TestUnpackRejectsDamage(t *testing.T) {
	const zeroAB = 0x60 // the kind-byte flags for a == 0 and b == 0
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// A txn-hop at time 0 on node 0, item 0, with a == b == 0: its txn
	// field follows.
	hop := []byte{byte(obs.KTxnHop) | zeroAB, 0, 0, 0}
	sample := pack(obs.SampleEvents())
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"truncated":            {sample[:len(sample)-1], "truncated event"},
		"unknown kind":         {[]byte{0x7f, 0, 0, 0}, "unknown event kind"},
		"flag on fill":         {[]byte{byte(obs.KReadFill) | 0x80 | zeroAB, 0, 0, 0}, "optional-txn flag"},
		"node out of range":    {[]byte{byte(obs.KReadFill) | zeroAB, 0, 0x80, 0xf1, 0x04, 0}, "node 40000 out of range"},
		"item below NoItem":    {[]byte{byte(obs.KReadFill) | zeroAB, 0, 0, 0x03}, "item -2 out of range"},
		"varint overflow":      {[]byte{byte(obs.KReadFill), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "overflows"},
		"overlong varint":      {[]byte{byte(obs.KReadFill) | zeroAB, 0x80, 0x00, 0, 0}, "longer than its value needs"},
		"overlong slot":        {cat(hop, []byte{0x81, 0x00, 0x02}), "longer than its value needs"},
		"unknown state":        {[]byte{byte(obs.KState) | zeroAB, 0, 0, 0, 0xff, 0}, "unknown state"},
		"unknown cause":        {[]byte{byte(obs.KInjectAccept) | zeroAB, 0, 0, 0, 0xff}, "unknown inject cause"},
		"zero inject txn":      {[]byte{byte(obs.KInjectAccept) | 0x80 | zeroAB, 0, 0, 0, 0, 0, 0}, "explicit zero txn"},
		"zero parent txn":      {[]byte{byte(obs.KTxnBegin) | 0x80 | zeroAB, 0, 0, 0, 0, 2, 1}, "explicit zero parent"},
		"slot above escape":    {cat(hop, uv(math.MaxInt16+3), []byte{0}), "above the escape slot"},
		"txn below its slot":   {cat(hop, uv(1), []byte{0x01}), "leaves origin slot 1"},
		"txn above its slot":   {cat(hop, uv(1), binary.AppendVarint(nil, 1<<proto.TxnSeqBits)), "leaves origin slot 1"},
		"mintable txn escaped": {cat(hop, uv(math.MaxInt16+2), binary.AppendVarint(nil, 2)), "belongs to origin slot 0"},
		"zero a unflagged":     {[]byte{byte(obs.KReadFill) | 0x20, 0, 0, 0, 0}, "zero a written"},
		"zero b unflagged":     {[]byte{byte(obs.KReadFill) | 0x40, 0, 0, 0, 0}, "zero b written"},
	} {
		err := obs.UnpackJSONL(&bytes.Buffer{}, tc.data)
		if err == nil || !strings.Contains(err.Error(), "obs: packed trace: event") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a packed-trace decode error saying %q", name, err, tc.want)
		}
	}
}

// FuzzPackedTraceRoundTrip pins the packed codec from both sides. Read
// as a JSONL log, every input ReadJSONL accepts must pack and unpack to
// exactly its canonical JSONL. Read as a packed log, no input may make
// UnpackJSONL panic, and whatever it does not reject must expand to
// lines ReadJSONL accepts and re-pack to exactly its own bytes. Seeds: the FuzzJSONLRoundTrip corpus,
// txn IDs at and past the origin range, and windows of recorded runs,
// in both forms.
func FuzzPackedTraceRoundTrip(f *testing.F) {
	for _, line := range obs.JSONLSeedLines(f) {
		f.Add([]byte(line + "\n"))
	}
	f.Add(jsonl(f, obs.SampleEvents()))
	f.Add(pack(obs.SampleEvents()))
	f.Add(jsonl(f, txnExtremeEvents()))
	f.Add(pack(txnExtremeEvents()))
	for _, permanent := range []bool{false, true} {
		events := recordRun(f, permanent)
		// A window from the first event of each kind covers every
		// encoding without seeding megabyte inputs.
		seen := map[obs.Kind]bool{}
		for i, ev := range events {
			if seen[ev.Kind] {
				continue
			}
			seen[ev.Kind] = true
			w := events[i:min(i+32, len(events))]
			f.Add(jsonl(f, w))
			f.Add(pack(w))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if events, err := obs.ReadJSONL(bytes.NewReader(data)); err == nil {
			requireRoundTrip(t, events)
		}
		var out bytes.Buffer
		if err := obs.UnpackJSONL(&out, data); err == nil {
			events, err := obs.ReadJSONL(&out)
			if err != nil {
				t.Fatalf("UnpackJSONL accepted %x but wrote a line ReadJSONL rejects: %v", data, err)
			}
			if repacked := pack(events); !bytes.Equal(repacked, data) {
				t.Fatalf("UnpackJSONL accepted %x, which re-packs to %x: a log has one encoding", data, repacked)
			}
		}
	})
}

// servedColdTrace records the receipt-grade trace (every kind but
// queue-depth samples and injection probes) of the serve-local cold
// job's shape: mp3d, ECP, 4 nodes, 200k instructions, 400 Hz.
func servedColdTrace(tb testing.TB) []obs.Event {
	tb.Helper()
	rec := obs.NewRecorder(obs.MaskAll &^ (1<<obs.KQueueDepth | 1<<obs.KInjectProbe))
	m, err := machine.New(machine.Config{
		Arch:         config.KSR1(4),
		Protocol:     coherence.ECP,
		App:          workload.Mp3d().Scale(200_000 / float64(workload.Mp3d().Instructions)),
		Seed:         1,
		CheckpointHz: 400,
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

// BenchmarkAppendJSONL encodes a served cold job's trace as canonical
// JSONL into one reused buffer: the encoding share of the receipt
// gate's cost.
func BenchmarkAppendJSONL(b *testing.B) {
	events := servedColdTrace(b)
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	for b.Loop() {
		for i := range events {
			if cap(buf)-len(buf) < 512 {
				buf = buf[:0]
			}
			buf = events[i].AppendJSONL(buf)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
