package txnview

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
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
	for _, tc := range txnTableCases() {
		f.Add(encodeJSONL(f, tc.events))
	}
	f.Add(encodeJSONL(f, sharedChainTrace()))
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
// cold job's trace: records come in chunks and a state change allocates
// nothing, so the whole ≈39k-event replay takes 140 objects; the bound
// leaves 25% over that.
func TestSummarizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full served-job trace")
	}
	events := servedColdTrace(t)
	if len(events) < 30_000 {
		t.Fatalf("trace has %d events, want a served cold job's ≈39k", len(events))
	}
	if allocs := testing.AllocsPerRun(3, func() { Summarize(events) }); allocs > 175 {
		t.Fatalf("Summarize over %d events allocates %.0f objects, want at most 175", len(events), allocs)
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
// per-state tallies against its copy chains after a recorded run, and
// the item chains against the node chains: every copy is on its item's
// chain and on its node's, once.
func TestFoldStatesStayTallied(t *testing.T) {
	f := NewFold()
	for _, ev := range recordRun(t, 4, 0.002, config.FailureEvent{At: 40000, Node: 2}) {
		f.Step(ev)
	}
	var inState [proto.NumStates]int
	onItem := map[int32]bool{}
	for r := range f.items.n {
		it := f.items.at(r)
		if got := f.index[it.item]; got != int32(r) {
			t.Fatalf("item %d: record %d, index says %d", it.item, r, got)
		}
		var tl itemTally
		for c := it.head; c != 0; c = f.copies.at(int(c)).next {
			cp := *f.copies.at(int(c))
			if cp.rec != int32(r) || cp.st == proto.Invalid || onItem[c] {
				t.Fatalf("item %d: copy %d is %+v, or chained twice", it.item, c, cp)
			}
			onItem[c] = true
			inState[cp.st]++
			tl.copies++
			if cp.st.Owner() {
				tl.owners++
			}
		}
		if tl != it.itemTally {
			t.Fatalf("item %d: tally %+v, its copies say %+v", it.item, it.itemTally, tl)
		}
	}
	if inState != f.inState {
		t.Fatalf("per-state tally %v, copy chains say %v", f.inState, inState)
	}
	onNode := 0
	for ni, head := range f.byNode {
		prev := int32(0)
		for c := head; c != 0; prev, c = c, f.copies.at(int(c)).succ {
			if cp := *f.copies.at(int(c)); !onItem[c] || chainOf(cp.node) != ni || cp.prev != prev {
				t.Fatalf("node chain %d: copy %d is %+v (previous %d), or on no item chain", ni, c, cp, prev)
			}
			onNode++
		}
	}
	if onNode != len(onItem) {
		t.Fatalf("node chains hold %d copies, item chains %d", onNode, len(onItem))
	}
}

// txnLife returns the begin, one hop and the end of transaction id
// from time t: an access of item when op is a read or write.
func txnLife(t int64, id proto.TxnID, op int64, item proto.ItemID) []obs.Event {
	return []obs.Event{
		{Time: t, Kind: obs.KTxnBegin, Node: id.Origin(), Item: item, Txn: id, A: op},
		{Time: t + 1, Kind: obs.KTxnHop, Node: 0, Item: item, Txn: id, B: 1},
		{Time: t + 2, Kind: obs.KTxnEnd, Node: id.Origin(), Item: item, Txn: id, A: obs.FillCold, B: 2},
	}
}

// begins returns a begin and an end for each seq in [from, to) of
// origin, skipping skip.
func begins(t int64, origin proto.NodeID, from, to, skip int64) []obs.Event {
	var evs []obs.Event
	for q := from; q < to; q++ {
		if q != skip {
			evs = append(evs, txnLife(t+3*q, tx(origin, q), obs.TxnInject, proto.NoItem)...)
		}
	}
	return evs
}

func concat(parts ...[]obs.Event) []obs.Event {
	var evs []obs.Event
	for _, p := range parts {
		evs = append(evs, p...)
	}
	return evs
}

// txnTableCases are traces that take every path of the fold's
// transaction table; far is how many records each must leave in the
// far map.
func txnTableCases() []struct {
	name   string
	events []obs.Event
	far    int
} {
	late := tx(0, 1+maxAhead+5) // more than maxAhead past a slot holding at most seq 1
	return []struct {
		name   string
		events []obs.Event
		far    int
	}{
		{"round transactions in slot 0", concat(
			txnLife(10, tx(proto.None, 1), obs.TxnCkptRound, proto.NoItem),
			txnLife(20, tx(0, 1), obs.TxnRead, 4),
			txnLife(30, tx(proto.None, 2), obs.TxnRecoveryRound, proto.NoItem),
		), 0},
		{"negative IDs", concat(
			txnLife(10, -5, obs.TxnRead, 3), // an access, its fill judged from a far record
			txnLife(20, -1<<40, obs.TxnInject, proto.NoItem),
			txnLife(30, -5, obs.TxnRead, 3), // a duplicate begin
		), 2},
		{"seq past the growth bound, then a duplicate begin once the slot reaches it", concat(
			begins(10, 0, 1, 2, 0),
			txnLife(20, late, obs.TxnWrite, 8),
			begins(30, 0, 2, int64(late.Seq())+4, 0),
		), 1},
		{"a duplicate end across the dense/far boundary", concat(
			txnLife(10, late, obs.TxnInject, proto.NoItem),
			begins(20, 0, 1, int64(late.Seq())+4, int64(late.Seq())),
			[]obs.Event{{Time: 900, Kind: obs.KTxnEnd, Node: 0, Item: proto.NoItem, Txn: late, B: 1}},
		), 1},
		{"out-of-order begins", concat(
			txnLife(10, tx(2, 5), obs.TxnRead, 1),
			txnLife(20, tx(2, 3), obs.TxnWrite, 1),
			begins(30, 2, 1, 5, 3),
			txnLife(60, tx(2, 7), obs.TxnInject, proto.NoItem),
		), 0},
		{"begin times a record cannot hold", concat(
			txnLife(-7, tx(1, 1), obs.TxnInject, proto.NoItem),
			txnLife(math.MaxInt64-9, tx(1, 2), obs.TxnInject, proto.NoItem),
			txnLife(40, tx(1, 1), obs.TxnInject, proto.NoItem), // duplicate: first began at -7
		), 2},
		{"origin slots out of range, unknown hop and end", concat(
			txnLife(10, proto.TxnID((maxSlot+1)<<proto.TxnSeqBits|1), obs.TxnInject, proto.NoItem),
			[]obs.Event{
				{Time: 20, Kind: obs.KTxnHop, Node: 3, Item: proto.NoItem, Txn: tx(3, 9), B: 1},
				{Time: 21, Kind: obs.KTxnEnd, Node: 3, Item: proto.NoItem, Txn: tx(3, 10), B: 1},
			},
		), 1},
	}
}

// TestTxnTableMatchesReference: every txnTableCases trace folds to the
// reference's reports, and leaves the expected records in the far map.
func TestTxnTableMatchesReference(t *testing.T) {
	for _, tc := range txnTableCases() {
		t.Run(tc.name, func(t *testing.T) {
			requireMatchesReference(t, tc.events)
			f := NewFold()
			for _, ev := range tc.events {
				f.Step(ev)
			}
			if len(f.txns.far) != tc.far {
				t.Fatalf("%d records in the far map, want %d", len(f.txns.far), tc.far)
			}
		})
	}
}

// TestTxnTableAllocatesPerEvent: a trace naming far-out sequence
// numbers costs the fold memory in proportion to its events, not to
// the numbers, since comatrace check folds untrusted files. Neither a
// seq near 2^40 nor one stepping just inside the growth bound may cost
// more than 1 KiB an event.
func TestTxnTableAllocatesPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  func(i int64) int64
	}{
		{"seq near 2^40", func(i int64) int64 { return 1<<proto.TxnSeqBits - 1 - i }},
		{"seq stepping inside the growth bound", func(i int64) int64 { return 1 + i*(maxAhead-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []obs.Event
			for i := range int64(2000) {
				events = append(events, txnLife(10*i, tx(1, tc.seq(i)), obs.TxnInject, proto.NoItem)...)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := Summarize(events)
			runtime.ReadMemStats(&after)
			if !s.OK {
				t.Fatalf("well-formed trace fails: %+v", s)
			}
			if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(events)); per > 1024 {
				t.Fatalf("folding %d events allocates %.0f bytes an event, want at most 1024", len(events), per)
			}
		})
	}
}

// sharedChainTrace puts copies of nodes past the per-node chains, which
// share one chain, beside each other and beside node 3's, then commits,
// faults and rolls back nodes on the shared chain one at a time.
func sharedChainTrace() []obs.Event {
	const a, b = maxChains + 5, math.MaxInt16
	return []obs.Event{
		{Time: 1, Kind: obs.KState, Node: a, Item: 1, From: proto.Invalid, To: proto.Exclusive},
		{Time: 2, Kind: obs.KState, Node: a, Item: 1, From: proto.Exclusive, To: proto.PreCommit1},
		{Time: 3, Kind: obs.KState, Node: b, Item: 1, From: proto.Invalid, To: proto.PreCommit2},
		{Time: 4, Kind: obs.KState, Node: b, Item: 2, From: proto.Invalid, To: proto.Exclusive},
		{Time: 5, Kind: obs.KState, Node: 3, Item: 2, From: proto.Invalid, To: proto.InvCK1},
		{Time: 6, Kind: obs.KPhaseEnd, Node: a, Item: proto.NoItem, A: int64(obs.PhaseCommit)},
		{Time: 7, Kind: obs.KCommitted, Node: proto.None, Item: proto.NoItem, B: 1},
		{Time: 8, Kind: obs.KFault, Node: b, Item: proto.NoItem, A: 0, B: 2},
		{Time: 9, Kind: obs.KPhaseEnd, Node: a, Item: proto.NoItem, A: int64(obs.PhaseRecoveryScan)},
		{Time: 10, Kind: obs.KRoundEnd, Node: proto.None, Item: proto.NoItem, A: 1, B: 2},
	}
}

// TestSharedNodeChainMatchesReference: nodes sharing a chain fold to
// the reference's reports, and a scan or fault of one leaves the
// others' copies alone.
func TestSharedNodeChainMatchesReference(t *testing.T) {
	events := sharedChainTrace()
	requireMatchesReference(t, events)
	if s := Summarize(events); s.OK || s.Violations == 0 {
		t.Fatalf("Summarize = %+v, want the commit-atomicity violations of node %d's copy", s, math.MaxInt16)
	}
}
