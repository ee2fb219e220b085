package obs_test

import (
	"bytes"
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

// TestPackedExtremes: every kind with extreme field values (time and
// txn deltas that wrap, the widest node and item) stays within
// MaxPackedLen and round-trips.
func TestPackedExtremes(t *testing.T) {
	var events []obs.Event
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		for _, x := range []int64{math.MinInt64, math.MaxInt64} {
			events = append(events, obs.Event{
				Time: x, Kind: k, Node: 1<<15 - 1, Item: math.MaxInt32,
				From: proto.NumStates - 1, To: proto.NumStates - 1, Cause: proto.NumInjectCauses - 1,
				Txn: proto.TxnID(x), Par: proto.TxnID(-x), A: math.MinInt64, B: math.MinInt64,
			}, obs.Event{Time: -x, Kind: k, Node: proto.None, Item: proto.NoItem, Txn: proto.TxnID(-x), Par: 1})
		}
	}
	var p obs.Packer
	for i := range events {
		if n := len(p.Append(nil, &events[i])); n > obs.MaxPackedLen {
			t.Fatalf("%v event packs to %d bytes, over MaxPackedLen %d", events[i].Kind, n, obs.MaxPackedLen)
		}
	}
	requireRoundTrip(t, events)
}

// TestUnpackRejectsDamage: damaged logs are errors naming the event.
func TestUnpackRejectsDamage(t *testing.T) {
	sample := pack(obs.SampleEvents())
	for name, data := range map[string][]byte{
		"truncated":         sample[:len(sample)-1],
		"unknown kind":      {0x7f, 0, 0, 0, 0, 0},
		"flag on fill":      {byte(obs.KReadFill) | 0x80, 0, 0, 0, 0, 0},
		"node out of range": append([]byte{byte(obs.KReadFill), 0}, 0x80, 0xf1, 0x04, 0, 0, 0),
		"varint overflow":   {byte(obs.KReadFill), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"unknown state":     {byte(obs.KState), 0, 0, 0, 0xff, 0, 0, 0},
		"unknown cause":     {byte(obs.KInjectAccept), 0, 0, 0, 0xff, 0, 0},
		"zero inject txn":   {byte(obs.KInjectAccept) | 0x80, 0, 0, 0, 0, 0, 0, 0},
		"zero parent txn":   {byte(obs.KTxnBegin) | 0x80, 0, 0, 0, 2, 1, 0, 0},
	} {
		err := obs.UnpackJSONL(&bytes.Buffer{}, data)
		if err == nil || !strings.Contains(err.Error(), "obs: packed trace: event") {
			t.Errorf("%s: err = %v, want a packed-trace decode error", name, err)
		}
	}
}

// FuzzPackedTraceRoundTrip pins the packed codec from both sides. Read
// as a JSONL log, every input ReadJSONL accepts must pack and unpack to
// exactly its canonical JSONL. Read as a packed log, no input may make
// UnpackJSONL panic, and whatever it does not reject must expand to
// lines ReadJSONL accepts. Seeds: the FuzzJSONLRoundTrip corpus and
// windows of recorded runs, in both forms.
func FuzzPackedTraceRoundTrip(f *testing.F) {
	for _, line := range obs.JSONLSeedLines(f) {
		f.Add([]byte(line + "\n"))
	}
	f.Add(jsonl(f, obs.SampleEvents()))
	f.Add(pack(obs.SampleEvents()))
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
			if _, err := obs.ReadJSONL(&out); err != nil {
				t.Fatalf("UnpackJSONL accepted %x but wrote a line ReadJSONL rejects: %v", data, err)
			}
		}
	})
}
