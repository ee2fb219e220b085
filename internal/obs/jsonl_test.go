package obs_test

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/workload"
)

// refAppendJSONL is the canonical JSONL encoder as first written, on
// strconv.AppendInt and one append per field: the reference
// AppendJSONL must match byte for byte.
func refAppendJSONL(buf []byte, ev *obs.Event) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, ev.Time, 10)
	buf = append(buf, `,"k":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, `","n":`...)
	buf = strconv.AppendInt(buf, int64(ev.Node), 10)
	buf = append(buf, `,"i":`...)
	buf = strconv.AppendInt(buf, int64(ev.Item), 10)
	if ev.Kind == obs.KState {
		buf = append(buf, `,"from":"`...)
		buf = append(buf, ev.From.String()...)
		buf = append(buf, `","to":"`...)
		buf = append(buf, ev.To.String()...)
		buf = append(buf, '"')
	}
	if ev.Kind == obs.KInjectProbe || ev.Kind == obs.KInjectAccept {
		buf = append(buf, `,"cause":"`...)
		buf = append(buf, ev.Cause.String()...)
		buf = append(buf, '"')
		if ev.Txn != proto.NoTxn {
			buf = append(buf, `,"txn":`...)
			buf = strconv.AppendInt(buf, int64(ev.Txn), 10)
		}
	}
	if ev.Kind == obs.KTxnBegin || ev.Kind == obs.KTxnHop || ev.Kind == obs.KTxnEnd {
		buf = append(buf, `,"txn":`...)
		buf = strconv.AppendInt(buf, int64(ev.Txn), 10)
		if ev.Kind == obs.KTxnBegin && ev.Par != proto.NoTxn {
			buf = append(buf, `,"par":`...)
			buf = strconv.AppendInt(buf, int64(ev.Par), 10)
		}
	}
	buf = append(buf, `,"a":`...)
	buf = strconv.AppendInt(buf, ev.A, 10)
	buf = append(buf, `,"b":`...)
	buf = strconv.AppendInt(buf, ev.B, 10)
	buf = append(buf, '}', '\n')
	return buf
}

// requireMatchesRefJSONL fails unless AppendJSONL writes exactly the
// reference line for ev, onto an empty buffer and after existing
// bytes. A store past the capacity it reserves panics, so the widest
// events check that bound too.
func requireMatchesRefJSONL(t *testing.T, ev obs.Event) {
	t.Helper()
	want := refAppendJSONL(nil, &ev)
	if got := ev.AppendJSONL(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSONL(%+v)\n got  %q\n want %q", ev, got, want)
	}
	prefix := []byte("prior line\n")
	got := ev.AppendJSONL(append(make([]byte, 0, 16), prefix...))
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSONL after %q: got %q, want %q", prefix, got, want)
	}
}

// jsonlInts is every value each integer field is tested with: the
// extremes of each field's type, -1 (None, NoItem), 0, the one- and
// two-digit edges, 10^k±1 and multiples of 2^40 (TxnID origins).
func jsonlInts() []int64 {
	vals := []int64{
		math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32,
		math.MinInt16, math.MaxInt16, -1, 0, 9, 10, 99, 100,
	}
	for p := int64(10); p <= 1e18; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
	}
	for _, m := range []int64{1, 2, 3, 5, 32767, 32768, 1 << 22} {
		vals = append(vals, m<<40, m<<40+1, -m<<40)
	}
	return vals
}

// TestAppendJSONLMatchesReference: for every kind, an out-of-range one
// included, every integer field takes every jsonlInts value (through
// its type's conversion), and the enum fields take their first, last
// and an out-of-range value.
func TestAppendJSONLMatchesReference(t *testing.T) {
	base := obs.Event{Time: 123456, Node: 2, Item: 4095, From: proto.Shared, To: proto.PreCommit1,
		Cause: proto.InjectCheckpoint, Txn: proto.MakeTxnID(1, 77), Par: proto.MakeTxnID(proto.None, 3), A: 1, B: 144}
	fields := []func(*obs.Event, int64){
		func(ev *obs.Event, v int64) { ev.Time = v },
		func(ev *obs.Event, v int64) { ev.Node = proto.NodeID(v) },
		func(ev *obs.Event, v int64) { ev.Item = proto.ItemID(v) },
		func(ev *obs.Event, v int64) { ev.Txn = proto.TxnID(v) },
		func(ev *obs.Event, v int64) { ev.Par = proto.TxnID(v) },
		func(ev *obs.Event, v int64) { ev.A = v },
		func(ev *obs.Event, v int64) { ev.B = v },
	}
	for k := obs.Kind(0); int(k) <= obs.NumKinds; k++ {
		for _, set := range fields {
			for _, v := range jsonlInts() {
				ev := base
				ev.Kind = k
				set(&ev, v)
				requireMatchesRefJSONL(t, ev)
			}
		}
		for _, s := range []proto.State{0, proto.NumStates - 1, 255} {
			for _, c := range []proto.InjectCause{0, proto.NumInjectCauses - 1, 255} {
				ev := base
				ev.Kind, ev.From, ev.To, ev.Cause = k, s, s, c
				requireMatchesRefJSONL(t, ev)
			}
		}
	}
	widest := obs.Event{Time: math.MinInt64, Kind: 255, Node: math.MinInt16, Item: math.MinInt32,
		From: 255, To: 255, Cause: 255, Txn: math.MinInt64, Par: math.MinInt64, A: math.MinInt64, B: math.MinInt64}
	for _, k := range []obs.Kind{obs.KState, obs.KInjectAccept, obs.KTxnBegin, obs.KRoundQuiesced, 255} {
		widest.Kind = k
		requireMatchesRefJSONL(t, widest)
	}
}

// FuzzAppendJSONLMatchesReference: AppendJSONL matches the reference
// encoder on any event, whatever its field values. The kind byte folds
// onto the kinds and the two values past them, so most inputs exercise
// a kind's own fields.
func FuzzAppendJSONLMatchesReference(f *testing.F) {
	for _, ev := range obs.SampleEvents() {
		f.Add(ev.Time, uint8(ev.Kind), int16(ev.Node), int32(ev.Item), uint8(ev.From), uint8(ev.To),
			uint8(ev.Cause), int64(ev.Txn), int64(ev.Par), ev.A, ev.B)
	}
	f.Fuzz(func(t *testing.T, tm int64, kind uint8, node int16, item int32, from, to, cause uint8, txn, par, a, b int64) {
		requireMatchesRefJSONL(t, obs.Event{Time: tm, Kind: obs.Kind(kind % (uint8(obs.NumKinds) + 2)), Node: proto.NodeID(node),
			Item: proto.ItemID(item), From: proto.State(from), To: proto.State(to), Cause: proto.InjectCause(cause),
			Txn: proto.TxnID(txn), Par: proto.TxnID(par), A: a, B: b})
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
