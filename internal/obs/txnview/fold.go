package txnview

import (
	"fmt"
	"sort"
	"strings"

	"coma/internal/obs"
	"coma/internal/proto"
)

// Fold is the one-pass trace replay behind Check, Coverage and
// Summarize. Step it with every event of a trace, in order, then read
// the Summary; one replay yields the invariant verdict, the
// protocol-edge coverage and transaction well-formedness together, so
// an online consumer (the receipt gate) never needs the event slice.
//
// It tracks every item copy's coherence state, synthesises the scan
// transforms that the simulator's bulk scans perform without per-item
// events, and evaluates the recovery invariants at quiescent points.
// Sources of state knowledge:
//
//   - KState events record individual transitions (installs,
//     invalidations, downgrades, injections).
//   - The commit and recovery scans mutate whole attraction memories in
//     one pass and emit only KPhaseEnd; their effect is synthesised here
//     from the protocol definition (PreCommit -> Shared-CK and Inv-CK
//     discarded at commit; current state dropped and Inv-CK restored at
//     rollback).
//   - KFault destroys a node's AM contents wholesale.
//
// A state change allocates nothing once the maps have grown to the
// trace's working set: copies live in one flat map, and per-item and
// per-state tallies let the quiescent checks find violations without
// sorting. Only a check that does find one builds the sorted view its
// diagnostics are rendered from.
type Fold struct {
	n    int   // events stepped; the next event's index
	last int64 // time of the last event stepped

	// copies holds every non-Invalid copy's state; items tallies each
	// item's copies (items with none are absent); inState counts copies
	// per state.
	copies  map[copyKey]proto.State
	items   map[proto.ItemID]itemTally
	inState [proto.NumStates]int

	// pending snapshots fill-legality predicates at access begin.
	pending map[proto.TxnID]fillSnap
	// observed counts every state transition seen or synthesised.
	observed [proto.NumStates][proto.NumStates]int64

	round  int64 // current round number (0 outside rounds)
	rounds int64 // KRoundEnd events seen

	// Transaction well-formedness under Assemble's rules: txns holds
	// every transaction begun so far until the first rule is broken,
	// which malformed then records (nil txns, stop tracking).
	txns          map[proto.TxnID]txnStatus
	begun, closed int
	malformed     string

	errs  []string
	ended bool // the trace-end check has run
}

type copyKey struct {
	item proto.ItemID
	node proto.NodeID
}

type itemTally struct{ copies, owners int32 }

type fillSnap struct {
	anyCopy  bool // some non-Invalid copy existed at begin
	anyOwner bool // some owner-state copy existed at begin
}

type txnStatus struct {
	begin int64 // KTxnBegin time, for the duplicate-begin diagnostic
	ended bool
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		copies:  make(map[copyKey]proto.State),
		items:   make(map[proto.ItemID]itemTally),
		pending: make(map[proto.TxnID]fillSnap),
		txns:    make(map[proto.TxnID]txnStatus),
	}
}

const maxErrors = 20

func (f *Fold) errorf(format string, args ...any) {
	if len(f.errs) < maxErrors {
		f.errs = append(f.errs, fmt.Sprintf(format, args...))
	} else if len(f.errs) == maxErrors {
		f.errs = append(f.errs, "further violations suppressed")
	}
}

// saturated reports that errorf can add nothing more, so a quiescent
// check need not even look.
func (f *Fold) saturated() bool { return len(f.errs) > maxErrors }

// set moves one copy to state s (Invalid drops it), keeping the item
// and state tallies in step.
func (f *Fold) set(k copyKey, s proto.State) {
	old, had := f.copies[k]
	if !had && s == proto.Invalid {
		return
	}
	t := f.items[k.item]
	if had {
		f.inState[old]--
		t.copies--
		if old.Owner() {
			t.owners--
		}
	}
	if s == proto.Invalid {
		delete(f.copies, k)
	} else {
		f.copies[k] = s
		f.inState[s]++
		t.copies++
		if s.Owner() {
			t.owners++
		}
	}
	if t.copies == 0 {
		delete(f.items, k.item)
	} else {
		f.items[k.item] = t
	}
}

// Step folds the next event of the trace into the replay.
func (f *Fold) Step(ev obs.Event) {
	i := f.n
	f.n++
	f.last = ev.Time
	switch ev.Kind {
	case obs.KState:
		k := copyKey{ev.Item, ev.Node}
		if cur := f.copies[k]; cur != ev.From { // absent is Invalid
			f.errorf("event %d (cycle %d, round %d): node %v item %d records %v -> %v but replay holds the copy in %v",
				i, ev.Time, f.round, ev.Node, ev.Item, ev.From, ev.To, cur)
		}
		f.observed[ev.From][ev.To]++
		f.set(k, ev.To)

	case obs.KTxnBegin:
		f.track(i, ev)
		if ev.Txn != proto.NoTxn && ev.Item != proto.NoItem &&
			(ev.A == obs.TxnRead || ev.A == obs.TxnWrite) {
			t := f.items[ev.Item]
			f.pending[ev.Txn] = fillSnap{anyCopy: t.copies > 0, anyOwner: t.owners > 0}
		}

	case obs.KTxnHop:
		f.track(i, ev)

	case obs.KTxnEnd:
		f.track(i, ev)
		// For read/write transactions (the only ones in pending) the
		// end event's A is the fill source, so legality is judged here:
		// the fill events themselves do not carry the transaction id on
		// the wire.
		snap, ok := f.pending[ev.Txn]
		if !ok {
			break // not an access txn, or its begin was filtered out
		}
		delete(f.pending, ev.Txn)
		switch ev.A {
		case obs.FillRemote:
			if !snap.anyCopy {
				f.errorf("event %d (cycle %d, round %d): node %v filled item %d remotely but no copy existed anywhere when %v began — fill from an invalid copy",
					i, ev.Time, f.round, ev.Node, ev.Item, ev.Txn)
			}
		case obs.FillCold:
			if snap.anyOwner {
				f.errorf("event %d (cycle %d, round %d): node %v cold-filled item %d but an owner copy existed when %v began — the master was bypassed",
					i, ev.Time, f.round, ev.Node, ev.Item, ev.Txn)
			}
		}

	case obs.KPhaseEnd:
		switch obs.Phase(ev.A) {
		case obs.PhaseCommit:
			f.scan(ev.Node, commitTransform)
		case obs.PhaseRecoveryScan:
			f.scan(ev.Node, recoveryTransform)
		case obs.PhaseCreate, obs.PhaseReconfigure, obs.NumPhases:
			// Create and reconfigure mutate through the state hook;
			// every change already arrived as KState.
		}

	case obs.KFault:
		// Fail-silent: the node's AM contents are gone. Not a protocol
		// transition, so nothing is recorded as coverage.
		for k := range f.copies {
			if k.node == ev.Node {
				f.set(k, proto.Invalid)
			}
		}

	case obs.KRoundBegin:
		f.round = ev.B

	case obs.KRoundQuiesced:
		f.checkOwnerUnique(i, ev.Time, "quiesce")

	case obs.KCommitted:
		f.checkOwnerUnique(i, ev.Time, "commit")
		f.checkCommitAtomic(i, ev.Time)

	case obs.KRoundEnd:
		f.rounds++
		f.checkOwnerUnique(i, ev.Time, "round end")
		if ev.A == 1 { // recovery round
			f.checkRecoveryPersistence(i, ev.Time)
		}
		f.round = 0

	case obs.KReadFill, obs.KWriteFill, obs.KInjectProbe, obs.KInjectAccept,
		obs.KPhaseBegin, obs.KRollback, obs.KReconfig, obs.KQueueDepth:
		// Carry nothing the replay needs.
	}
}

// track applies Assemble's well-formedness rules to one transaction
// event: a duplicate begin, a hop or end for a transaction that never
// began, or a second end is an error, and only the first is kept.
func (f *Fold) track(i int, ev obs.Event) {
	if f.malformed != "" {
		return
	}
	st, known := f.txns[ev.Txn]
	switch {
	case ev.Kind == obs.KTxnBegin && known:
		f.malform(fmt.Sprintf("txnview: event %d: duplicate begin for %v (first began at cycle %d)",
			i, ev.Txn, st.begin))
	case ev.Kind == obs.KTxnBegin:
		f.txns[ev.Txn] = txnStatus{begin: ev.Time}
		f.begun++
	case ev.Kind == obs.KTxnHop && !known:
		f.malform(fmt.Sprintf("txnview: event %d: hop for unknown transaction %v (%v at cycle %d)",
			i, ev.Txn, proto.MsgKind(ev.A), ev.Time))
	case ev.Kind == obs.KTxnEnd && !known:
		f.malform(fmt.Sprintf("txnview: event %d: end for unknown transaction %v at cycle %d",
			i, ev.Txn, ev.Time))
	case ev.Kind == obs.KTxnEnd && st.ended:
		f.malform(fmt.Sprintf("txnview: event %d: duplicate end for %v", i, ev.Txn))
	case ev.Kind == obs.KTxnEnd:
		st.ended = true
		f.txns[ev.Txn] = st
		f.closed++
	}
}

func (f *Fold) malform(msg string) {
	f.malformed = msg
	f.txns = nil
}

// scan applies a bulk AM-scan transform to every copy on one node,
// recording the synthesised transitions.
func (f *Fold) scan(n proto.NodeID, transform func(proto.State) (proto.State, bool)) {
	for k, st := range f.copies {
		if k.node != n {
			continue
		}
		to, changed := transform(st)
		if !changed {
			continue
		}
		f.observed[st][to]++
		f.set(k, to) // an update or a delete: never inserts mid-range
	}
}

// commitTransform is the commit scan: PreCommit copies become the new
// recovery point, Inv-CK copies of the previous one are discarded.
func commitTransform(s proto.State) (proto.State, bool) {
	switch s {
	case proto.PreCommit1:
		return proto.SharedCK1, true
	case proto.PreCommit2:
		return proto.SharedCK2, true
	case proto.InvCK1, proto.InvCK2:
		return proto.Invalid, true
	case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
		proto.SharedCK1, proto.SharedCK2:
		return s, false
	}
	return s, false
}

// recoveryTransform is the rollback scan: current and pre-commit copies
// are dropped, Inv-CK copies are restored to Shared-CK.
func recoveryTransform(s proto.State) (proto.State, bool) {
	switch s {
	case proto.Shared, proto.Exclusive, proto.MasterShared,
		proto.PreCommit1, proto.PreCommit2:
		return proto.Invalid, true
	case proto.InvCK1:
		return proto.SharedCK1, true
	case proto.InvCK2:
		return proto.SharedCK2, true
	case proto.Invalid, proto.SharedCK1, proto.SharedCK2:
		return s, false
	}
	return s, false
}

// checkOwnerUnique verifies the single-master invariant: at a quiescent
// point no item may have two owner-state copies. (Mid-transaction an
// injection legitimately holds two while the copy moves, so the check
// only runs when the machine is drained.)
func (f *Fold) checkOwnerUnique(i int, t int64, where string) {
	if f.saturated() || !f.anyItem(func(t itemTally) bool { return t.owners > 1 }) {
		return
	}
	for _, g := range f.itemGroups() {
		if owners := f.items[g.item].owners; owners > 1 {
			f.errorf("event %d (cycle %d, round %d): item %d has %d owner copies at %s: %s",
				i, t, f.round, g.item, owners, where, g.list())
		}
	}
}

// checkCommitAtomic verifies checkpoint atomicity: at the commit
// instant every node's scan has finished, so no transient PreCommit or
// stale Inv-CK copy may survive.
func (f *Fold) checkCommitAtomic(i int, t int64) {
	if f.saturated() || f.inState[proto.PreCommit1]+f.inState[proto.PreCommit2]+
		f.inState[proto.InvCK1]+f.inState[proto.InvCK2] == 0 {
		return
	}
	for _, g := range f.itemGroups() {
		for _, c := range g.copies {
			switch c.st {
			case proto.PreCommit1, proto.PreCommit2:
				f.errorf("event %d (cycle %d, round %d): commit atomicity: item %d still has a %v copy on node %v at commit",
					i, t, f.round, g.item, c.st, c.node)
			case proto.InvCK1, proto.InvCK2:
				f.errorf("event %d (cycle %d, round %d): commit atomicity: item %d kept the stale %v copy on node %v past commit",
					i, t, f.round, g.item, c.st, c.node)
			case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
				proto.SharedCK1, proto.SharedCK2:
				// Legal at a commit point.
			}
		}
	}
}

// checkRecoveryPersistence verifies that a rollback lost no master: at
// the end of a recovery round every surviving item (any copy left) has
// exactly one owner copy — the restored or promoted Shared-CK1.
func (f *Fold) checkRecoveryPersistence(i int, t int64) {
	if f.saturated() || !f.anyItem(func(t itemTally) bool { return t.owners != 1 }) {
		return
	}
	for _, g := range f.itemGroups() {
		if owners := f.items[g.item].owners; owners != 1 {
			f.errorf("event %d (cycle %d, round %d): rollback left item %d with %d owner copies (want 1): %s",
				i, t, f.round, g.item, owners, g.list())
		}
	}
}

// anyItem reports whether some item with copies satisfies bad: the
// sort-free, allocation-free pass every quiescent check starts with.
func (f *Fold) anyItem(bad func(itemTally) bool) bool {
	for _, t := range f.items {
		if bad(t) {
			return true
		}
	}
	return false
}

// itemCopy is one copy in the sorted diagnostic view.
type itemCopy struct {
	node proto.NodeID
	st   proto.State
}

// itemGroup is one item's copies, in node order.
type itemGroup struct {
	item   proto.ItemID
	copies []itemCopy
}

// itemGroups returns every item that has copies, ascending, each with
// its copies in node order, so invariant diagnostics come out in a
// deterministic order. Only a check that found a violation calls it.
func (f *Fold) itemGroups() []itemGroup {
	keys := make([]copyKey, 0, len(f.copies))
	for k := range f.copies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].item != keys[j].item {
			return keys[i].item < keys[j].item
		}
		return keys[i].node < keys[j].node
	})
	var groups []itemGroup
	for _, k := range keys {
		if len(groups) == 0 || groups[len(groups)-1].item != k.item {
			groups = append(groups, itemGroup{item: k.item})
		}
		g := &groups[len(groups)-1]
		g.copies = append(g.copies, itemCopy{k.node, f.copies[k]})
	}
	return groups
}

// list renders the item's copies ("node n2 (Shared-CK1), ...") in node
// order.
func (g itemGroup) list() string {
	parts := make([]string, len(g.copies))
	for i, c := range g.copies {
		parts[i] = fmt.Sprintf("node %v (%v)", c.node, c.st)
	}
	return strings.Join(parts, ", ")
}

// finish runs the trace-end single-master check, once.
func (f *Fold) finish() {
	if !f.ended {
		f.ended = true
		f.checkOwnerUnique(f.n, f.last, "trace end")
	}
}

// checkReport returns Check's report. It completes the replay: Step
// must not be called afterwards.
func (f *Fold) checkReport() *CheckReport {
	f.finish()
	rep := &CheckReport{Events: f.n, Rounds: f.rounds}
	if f.malformed != "" {
		rep.Violations = append(rep.Violations, f.malformed)
	} else {
		rep.Txns = f.begun
		rep.Incomplete = f.begun - f.closed
	}
	rep.Violations = append(rep.Violations, f.errs...)
	return rep
}

// coverageReport returns Coverage's report. Coverage never depends on
// the trace-end check, so it may be read at any point of the replay.
func (f *Fold) coverageReport() *CoverageReport {
	rep := &CoverageReport{}
	for _, e := range specEdges {
		e.Count = f.observed[e.From][e.To]
		if e.Count > 0 {
			rep.Exercised = append(rep.Exercised, e)
		} else {
			rep.Unexercised = append(rep.Unexercised, e)
		}
	}
	for from := range f.observed {
		for to, n := range f.observed[from] {
			if n > 0 && !inSpec[from][to] {
				rep.Unexpected = append(rep.Unexpected,
					Edge{Edge: proto.Edge{From: proto.State(from), To: proto.State(to)}, Count: n})
			}
		}
	}
	return rep
}

// Summary condenses the verdict and edge counts the way Summarize
// does, without building either report. It completes the replay: Step
// must not be called afterwards.
func (f *Fold) Summary() Summary {
	f.finish()
	exercised := 0
	for _, e := range specEdges {
		if f.observed[e.From][e.To] > 0 {
			exercised++
		}
	}
	v := len(f.errs)
	if f.malformed != "" {
		v++
	}
	return Summary{
		OK:             v == 0,
		Violations:     v,
		EdgesExercised: exercised,
		EdgesTotal:     len(specEdges),
	}
}
