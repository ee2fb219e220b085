package txnview

// The two-pass replay that Fold replaced, kept as a reference model:
// per-item nested copy maps, a transition map, Assemble for
// well-formedness, and separate replays for Check and Coverage. The
// differential tests in fold_test.go require Fold to report exactly what
// this model reports, violation strings and their order included.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"coma/internal/obs"
	"coma/internal/proto"
)

// refReplay is the trace-replay state machine shared by refCheck and
// refCoverage: it tracks every item copy's coherence state across the
// trace, synthesises the scan transforms that the simulator's bulk
// scans perform without per-item events, and evaluates the recovery
// invariants at quiescent points.
//
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
type refReplay struct {
	// copies[item][node] is the item's non-Invalid state on the node.
	copies map[proto.ItemID]map[proto.NodeID]proto.State
	// pending[txn] snapshots fill-legality predicates at access begin.
	pending map[proto.TxnID]refFillSnap
	// observed counts every state transition seen or synthesised.
	observed map[proto.Edge]int64

	round int64 // current round number (0 outside rounds)
	mode  int64 // current round mode (KRoundBegin.A)

	errs []string
}

type refFillSnap struct {
	anyCopy  bool // some non-Invalid copy existed at begin
	anyOwner bool // some owner-state copy existed at begin
}

func newRefReplay() *refReplay {
	return &refReplay{
		copies:   make(map[proto.ItemID]map[proto.NodeID]proto.State),
		pending:  make(map[proto.TxnID]refFillSnap),
		observed: make(map[proto.Edge]int64),
	}
}

func (r *refReplay) errorf(format string, args ...any) {
	if len(r.errs) < maxErrors {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	} else if len(r.errs) == maxErrors {
		r.errs = append(r.errs, "further violations suppressed")
	}
}

func (r *refReplay) state(item proto.ItemID, n proto.NodeID) proto.State {
	if m := r.copies[item]; m != nil {
		return m[n] // zero value is Invalid
	}
	return proto.Invalid
}

func (r *refReplay) set(item proto.ItemID, n proto.NodeID, s proto.State) {
	m := r.copies[item]
	if s == proto.Invalid {
		if m != nil {
			delete(m, n)
			if len(m) == 0 {
				delete(r.copies, item)
			}
		}
		return
	}
	if m == nil {
		m = make(map[proto.NodeID]proto.State)
		r.copies[item] = m
	}
	m[n] = s
}

// step replays one event. i is the event's index (for diagnostics).
func (r *refReplay) step(i int, ev obs.Event) {
	switch ev.Kind {
	case obs.KState:
		if cur := r.state(ev.Item, ev.Node); cur != ev.From {
			r.errorf("event %d (cycle %d, round %d): node %v item %d records %v -> %v but replay holds the copy in %v",
				i, ev.Time, r.round, ev.Node, ev.Item, ev.From, ev.To, cur)
		}
		r.observed[proto.Edge{From: ev.From, To: ev.To}]++
		r.set(ev.Item, ev.Node, ev.To)

	case obs.KTxnBegin:
		if ev.Txn != proto.NoTxn && ev.Item != proto.NoItem &&
			(ev.A == obs.TxnRead || ev.A == obs.TxnWrite) {
			var s refFillSnap
			for _, st := range r.copies[ev.Item] {
				s.anyCopy = true
				if st.Owner() {
					s.anyOwner = true
				}
			}
			r.pending[ev.Txn] = s
		}

	case obs.KTxnEnd:
		// For read/write transactions (the only ones in pending) the
		// end event's A is the fill source, so legality is judged here:
		// the fill events themselves do not carry the transaction id on
		// the wire.
		snap, ok := r.pending[ev.Txn]
		if !ok {
			break // not an access txn, or its begin was filtered out
		}
		delete(r.pending, ev.Txn)
		switch ev.A {
		case obs.FillRemote:
			if !snap.anyCopy {
				r.errorf("event %d (cycle %d, round %d): node %v filled item %d remotely but no copy existed anywhere when %v began — fill from an invalid copy",
					i, ev.Time, r.round, ev.Node, ev.Item, ev.Txn)
			}
		case obs.FillCold:
			if snap.anyOwner {
				r.errorf("event %d (cycle %d, round %d): node %v cold-filled item %d but an owner copy existed when %v began — the master was bypassed",
					i, ev.Time, r.round, ev.Node, ev.Item, ev.Txn)
			}
		}

	case obs.KPhaseEnd:
		switch obs.Phase(ev.A) {
		case obs.PhaseCommit:
			r.scan(ev.Node, commitTransform)
		case obs.PhaseRecoveryScan:
			r.scan(ev.Node, recoveryTransform)
		case obs.PhaseCreate, obs.PhaseReconfigure, obs.NumPhases:
			// Create and reconfigure mutate through the state hook;
			// every change already arrived as KState.
		}

	case obs.KFault:
		// Fail-silent: the node's AM contents are gone. Not a protocol
		// transition, so nothing is recorded as coverage.
		for item, m := range r.copies {
			if _, ok := m[ev.Node]; ok {
				delete(m, ev.Node)
				if len(m) == 0 {
					delete(r.copies, item)
				}
			}
		}

	case obs.KRoundBegin:
		r.round = ev.B
		r.mode = ev.A

	case obs.KRoundQuiesced:
		r.checkOwnerUnique(i, ev.Time, "quiesce")

	case obs.KCommitted:
		r.checkOwnerUnique(i, ev.Time, "commit")
		r.checkCommitAtomic(i, ev.Time)

	case obs.KRoundEnd:
		r.checkOwnerUnique(i, ev.Time, "round end")
		if ev.A == 1 { // recovery round
			r.checkRecoveryPersistence(i, ev.Time)
		}
		r.round, r.mode = 0, 0
	}
}

// scan applies a bulk AM-scan transform to every copy on one node,
// recording the synthesised transitions.
func (r *refReplay) scan(n proto.NodeID, transform func(proto.State) (proto.State, bool)) {
	for item, m := range r.copies {
		st, ok := m[n]
		if !ok {
			continue
		}
		to, changed := transform(st)
		if !changed {
			continue
		}
		r.observed[proto.Edge{From: st, To: to}]++
		r.set(item, n, to)
	}
}

// sortedItems returns the items that currently have copies, ascending,
// so invariant diagnostics come out in a deterministic order.
func (r *refReplay) sortedItems() []proto.ItemID {
	items := make([]proto.ItemID, 0, len(r.copies))
	for it := range r.copies {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// refSortedNodes returns the nodes holding copies in m, ascending.
func refSortedNodes(m map[proto.NodeID]proto.State) []proto.NodeID {
	nodes := make([]proto.NodeID, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// checkOwnerUnique verifies the single-master invariant: at a quiescent
// point no item may have two owner-state copies. (Mid-transaction an
// injection legitimately holds two while the copy moves, so the check
// only runs when the machine is drained.)
func (r *refReplay) checkOwnerUnique(i int, t int64, where string) {
	for _, item := range r.sortedItems() {
		m := r.copies[item]
		owners := 0
		for _, n := range refSortedNodes(m) {
			if m[n].Owner() {
				owners++
			}
		}
		if owners > 1 {
			r.errorf("event %d (cycle %d, round %d): item %d has %d owner copies at %s: %s",
				i, t, r.round, item, owners, where, refCopyList(m))
		}
	}
}

// checkCommitAtomic verifies checkpoint atomicity: at the commit
// instant every node's scan has finished, so no transient PreCommit or
// stale Inv-CK copy may survive.
func (r *refReplay) checkCommitAtomic(i int, t int64) {
	for _, item := range r.sortedItems() {
		m := r.copies[item]
		for _, n := range refSortedNodes(m) {
			switch st := m[n]; st {
			case proto.PreCommit1, proto.PreCommit2:
				r.errorf("event %d (cycle %d, round %d): commit atomicity: item %d still has a %v copy on node %v at commit",
					i, t, r.round, item, st, n)
			case proto.InvCK1, proto.InvCK2:
				r.errorf("event %d (cycle %d, round %d): commit atomicity: item %d kept the stale %v copy on node %v past commit",
					i, t, r.round, item, st, n)
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
func (r *refReplay) checkRecoveryPersistence(i int, t int64) {
	for _, item := range r.sortedItems() {
		m := r.copies[item]
		owners := 0
		for _, n := range refSortedNodes(m) {
			if m[n].Owner() {
				owners++
			}
		}
		if owners != 1 {
			r.errorf("event %d (cycle %d, round %d): rollback left item %d with %d owner copies (want 1): %s",
				i, t, r.round, item, owners, refCopyList(m))
		}
	}
}

// refCopyList renders an item's copies ("node n2 (Shared-CK1), ...") in
// node order.
func refCopyList(m map[proto.NodeID]proto.State) string {
	s := ""
	for i, n := range refSortedNodes(m) {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("node %v (%v)", n, m[n])
	}
	return s
}

// refCheck is the reference Check: Assemble, then a full replay.
func refCheck(events []obs.Event) *CheckReport {
	rep := &CheckReport{Events: len(events)}

	set, err := Assemble(events)
	if err != nil {
		rep.Violations = append(rep.Violations, err.Error())
	} else {
		rep.Txns = len(set.Txns)
		rep.Incomplete = len(set.Incomplete())
	}

	r := newRefReplay()
	for i, ev := range events {
		r.step(i, ev)
		if ev.Kind == obs.KRoundEnd {
			rep.Rounds++
		}
	}
	r.checkOwnerUnique(len(events), refLastTime(events), "trace end")
	rep.Violations = append(rep.Violations, r.errs...)
	return rep
}

func refLastTime(events []obs.Event) int64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Time
}

// refCoverage is the reference Coverage: a second full replay, then the
// observed transition map diffed against proto.ECPTransitions.
func refCoverage(events []obs.Event) *CoverageReport {
	r := newRefReplay()
	for i, ev := range events {
		r.step(i, ev)
	}

	// The table can describe one (from,to) pair several ways (e.g. an
	// Inv-CK copy vanishing at commit vs. moving by injection); merge
	// the descriptions per pair.
	via := make(map[proto.Edge]string)
	for _, tr := range proto.ECPTransitions() {
		k := proto.Edge{From: tr.From, To: tr.To}
		if cur, ok := via[k]; ok {
			if !strings.Contains(cur, tr.Via) {
				via[k] = cur + "; " + tr.Via
			}
		} else {
			via[k] = tr.Via
		}
	}

	// Walk both maps in sorted key order so the report lists (and any
	// diagnostics derived from them) are deterministic by construction.
	rep := &CoverageReport{}
	for _, k := range refSortedKeys(via) {
		e := Edge{Edge: k, Count: r.observed[k], Via: via[k]}
		if e.Count > 0 {
			rep.Exercised = append(rep.Exercised, e)
		} else {
			rep.Unexercised = append(rep.Unexercised, e)
		}
	}
	for _, k := range refSortedKeys(r.observed) {
		if _, ok := via[k]; !ok {
			rep.Unexpected = append(rep.Unexpected, Edge{Edge: k, Count: r.observed[k]})
		}
	}
	return rep
}

// refSortedKeys returns an edge-keyed map's keys ordered by (from, to).
func refSortedKeys[V any](m map[proto.Edge]V) []proto.Edge {
	return slices.SortedFunc(maps.Keys(m), proto.Edge.Compare)
}

// refSummarize is the reference Summarize: refCheck plus refCoverage.
func refSummarize(events []obs.Event) Summary {
	chk := refCheck(events)
	cov := refCoverage(events)
	return Summary{
		OK:             chk.OK(),
		Violations:     len(chk.Violations),
		EdgesExercised: len(cov.Exercised),
		EdgesTotal:     len(cov.Exercised) + len(cov.Unexercised),
	}
}
