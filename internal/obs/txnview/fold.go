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
// Each item has one record, found through one hash lookup, that
// tallies its copies and heads the chain of them; every copy is also
// chained on its node, so a scan or a fault visits only that node's
// copies. Transactions live in a txnTable, indexed by origin and
// sequence number rather than hashed. A state change allocates nothing
// once the records have grown to the trace's working set, and per-item
// and per-state tallies let the quiescent checks find violations
// without sorting. Only a check that does find one builds the sorted
// view its diagnostics are rendered from.
type Fold struct {
	n    int   // events stepped; the next event's index
	last int64 // time of the last event stepped

	// index maps an item to its record in items; copies holds every
	// non-Invalid copy, chained on its item's record and on its node
	// (byNode heads the node chains, by chainOf). Copy 0 is unused,
	// so index 0 ends a chain; free chains the copies dropped, for
	// reuse. inState counts copies per state.
	index   map[proto.ItemID]int32
	items   chunked[itemRec]
	copies  chunked[copyRec]
	free    int32
	byNode  []int32
	inState [proto.NumStates]int

	// observed counts every state transition seen or synthesised.
	observed [proto.NumStates][proto.NumStates]int64

	round  int64 // current round number (0 outside rounds)
	rounds int64 // KRoundEnd events seen

	// txns records every transaction begun, with the fill-legality
	// snapshot of an access awaiting its end. Well-formedness follows
	// Assemble's rules until the first is broken, which malformed then
	// records; the begun and closed counts stop mattering from there.
	txns          txnTable
	begun, closed int
	malformed     string

	errs  []string
	ended bool // the trace-end check has run
}

// itemRec is one item's record: its tallies and the head of its copy
// chain (0 when it has no copy).
type itemRec struct {
	item proto.ItemID
	itemTally
	head int32
}

type itemTally struct{ copies, owners int32 }

// copyRec is one non-Invalid copy of the item whose record is rec.
// next chains the item's copies; prev and succ chain the node's.
type copyRec struct {
	rec              int32
	next, prev, succ int32
	node             proto.NodeID
	st               proto.State
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	f := &Fold{index: make(map[proto.ItemID]int32)}
	f.copies.push()
	return f
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

// maxChains bounds byNode. The nodes from None up have a chain each,
// and the NodeIDs past them share the last one, so a hostile node
// number costs no table; a walk of that chain skips other nodes'
// copies.
const maxChains = 1 << 10

// chainOf returns the byNode index of node n's chain.
func chainOf(n proto.NodeID) int {
	if n >= proto.None && int(n) < maxChains-2 {
		return int(n) + 1
	}
	return maxChains - 1
}

// copyOn returns item record r's copy on node n, or 0.
func (f *Fold) copyOn(r int32, n proto.NodeID) int32 {
	c := f.items.at(int(r)).head
	for c != 0 && f.copies.at(int(c)).node != n {
		c = f.copies.at(int(c)).next
	}
	return c
}

// tally moves a copy's contribution to the tallies from state old to
// state s; Invalid contributes nothing.
func (f *Fold) tally(t *itemTally, old, s proto.State) {
	if old != proto.Invalid {
		f.inState[old]--
		t.copies--
		if old.Owner() {
			t.owners--
		}
	}
	if s != proto.Invalid {
		f.inState[s]++
		t.copies++
		if s.Owner() {
			t.owners++
		}
	}
}

// set moves copy c (0: none yet) of item record r on node n from its
// state to s, adding, restating or dropping it. r < 0 means the item
// has no record yet, and then c must be 0.
func (f *Fold) set(r, c int32, item proto.ItemID, n proto.NodeID, s proto.State) {
	switch {
	case c != 0 && s == proto.Invalid:
		f.drop(c)
	case c != 0:
		cp := f.copies.at(int(c))
		f.tally(&f.items.at(int(cp.rec)).itemTally, cp.st, s)
		cp.st = s
	case s != proto.Invalid:
		if r < 0 {
			r = int32(f.items.push())
			f.items.at(int(r)).item = item
			f.index[item] = r
		}
		f.add(r, n, s)
	}
}

// add chains a new copy of item record r on node n, in state s.
func (f *Fold) add(r int32, n proto.NodeID, s proto.State) {
	c := f.free
	if c != 0 {
		f.free = f.copies.at(int(c)).next
	} else {
		c = int32(f.copies.push())
	}
	it := f.items.at(int(r))
	ni := chainOf(n)
	if ni >= len(f.byNode) {
		f.byNode = append(f.byNode, make([]int32, ni+1-len(f.byNode))...)
	}
	succ := f.byNode[ni]
	*f.copies.at(int(c)) = copyRec{rec: r, next: it.head, succ: succ, node: n, st: s}
	if succ != 0 {
		f.copies.at(int(succ)).prev = c
	}
	f.byNode[ni] = c
	it.head = c
	f.tally(&it.itemTally, proto.Invalid, s)
}

// drop unchains copy c from its item and its node and frees it.
func (f *Fold) drop(c int32) {
	cp := f.copies.at(int(c))
	it := f.items.at(int(cp.rec))
	f.tally(&it.itemTally, cp.st, proto.Invalid)
	if it.head == c {
		it.head = cp.next
	} else {
		p := it.head
		for f.copies.at(int(p)).next != c {
			p = f.copies.at(int(p)).next
		}
		f.copies.at(int(p)).next = cp.next
	}
	if cp.prev != 0 {
		f.copies.at(int(cp.prev)).succ = cp.succ
	} else {
		f.byNode[chainOf(cp.node)] = cp.succ
	}
	if cp.succ != 0 {
		f.copies.at(int(cp.succ)).prev = cp.prev
	}
	*cp = copyRec{next: f.free}
	f.free = c
}

// Step folds the next event of the trace into the replay.
func (f *Fold) Step(ev obs.Event) {
	i := f.n
	f.n++
	f.last = ev.Time
	switch ev.Kind {
	case obs.KState:
		r, c := int32(-1), int32(0)
		if rr, ok := f.index[ev.Item]; ok {
			r, c = rr, f.copyOn(rr, ev.Node)
		}
		if cur := f.copies.at(int(c)).st; cur != ev.From { // copy 0 is Invalid
			f.errorf("event %d (cycle %d, round %d): node %v item %d records %v -> %v but replay holds the copy in %v",
				i, ev.Time, f.round, ev.Node, ev.Item, ev.From, ev.To, cur)
		}
		f.observed[ev.From][ev.To]++
		f.set(r, c, ev.Item, ev.Node, ev.To)

	case obs.KTxnBegin:
		rec, first := f.txns.begin(ev.Txn, ev.Time)
		if first {
			f.begun++
		} else {
			f.malform("txnview: event %d: duplicate begin for %v (first began at cycle %d)",
				i, ev.Txn, f.txns.beganAt(ev.Txn))
		}
		if ev.Txn != proto.NoTxn && ev.Item != proto.NoItem &&
			(ev.A == obs.TxnRead || ev.A == obs.TxnWrite) {
			var t itemTally
			if r, ok := f.index[ev.Item]; ok {
				t = f.items.at(int(r)).itemTally
			}
			*rec = rec.snapped(t.copies > 0, t.owners > 0)
		}

	case obs.KTxnHop:
		if f.txns.get(ev.Txn) == nil {
			f.malform("txnview: event %d: hop for unknown transaction %v (%v at cycle %d)",
				i, ev.Txn, proto.MsgKind(ev.A), ev.Time)
		}

	case obs.KTxnEnd:
		rec := f.txns.get(ev.Txn)
		switch {
		case rec == nil:
			f.malform("txnview: event %d: end for unknown transaction %v at cycle %d",
				i, ev.Txn, ev.Time)
		case *rec&txnEnded != 0:
			f.malform("txnview: event %d: duplicate end for %v", i, ev.Txn)
		default:
			*rec |= txnEnded
			f.closed++
		}
		// For read/write transactions (the only ones with a pending
		// snapshot) the end event's A is the fill source, so legality
		// is judged here: the fill events themselves do not carry the
		// transaction id on the wire.
		if rec == nil || *rec&txnPending == 0 {
			break // not an access txn, or its begin was filtered out
		}
		snap := *rec
		*rec &^= txnPending
		switch ev.A {
		case obs.FillRemote:
			if snap&txnAnyCopy == 0 {
				f.errorf("event %d (cycle %d, round %d): node %v filled item %d remotely but no copy existed anywhere when %v began — fill from an invalid copy",
					i, ev.Time, f.round, ev.Node, ev.Item, ev.Txn)
			}
		case obs.FillCold:
			if snap&txnAnyOwner != 0 {
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
		if ni := chainOf(ev.Node); ni < len(f.byNode) {
			for c := f.byNode[ni]; c != 0; {
				cp := f.copies.at(int(c))
				next := cp.succ
				if cp.node == ev.Node {
					f.drop(c)
				}
				c = next
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

// malform records a broken well-formedness rule, unless an earlier
// one already was: only the first is kept, as Assemble reports it.
func (f *Fold) malform(format string, args ...any) {
	if f.malformed == "" {
		f.malformed = fmt.Sprintf(format, args...)
	}
}

// scan applies a bulk AM-scan transform to every copy on one node,
// recording the synthesised transitions.
func (f *Fold) scan(n proto.NodeID, transform func(proto.State) (proto.State, bool)) {
	ni := chainOf(n)
	if ni >= len(f.byNode) {
		return
	}
	for c := f.byNode[ni]; c != 0; {
		cp := f.copies.at(int(c))
		next, st := cp.succ, cp.st
		if to, changed := transform(st); changed && cp.node == n { // a shared chain holds other nodes' copies too
			f.observed[st][to]++
			f.set(cp.rec, c, 0, n, to) // a restate or a drop: never adds
		}
		c = next
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
		if owners := g.owners; owners > 1 {
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
		if owners := g.owners; owners != 1 {
			f.errorf("event %d (cycle %d, round %d): rollback left item %d with %d owner copies (want 1): %s",
				i, t, f.round, g.item, owners, g.list())
		}
	}
}

// anyItem reports whether some item with copies satisfies bad: the
// sort-free, allocation-free pass every quiescent check starts with.
func (f *Fold) anyItem(bad func(itemTally) bool) bool {
	for i := range f.items.n {
		if t := f.items.at(i).itemTally; t.copies > 0 && bad(t) {
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
	owners int32
	copies []itemCopy
}

// itemGroups returns every item that has copies, ascending, each with
// its copies in node order, so invariant diagnostics come out in a
// deterministic order. Only a check that found a violation calls it.
func (f *Fold) itemGroups() []itemGroup {
	var groups []itemGroup
	for i := range f.items.n {
		it := f.items.at(i)
		if it.copies == 0 {
			continue
		}
		g := itemGroup{item: it.item, owners: it.owners}
		for c := it.head; c != 0; c = f.copies.at(int(c)).next {
			cp := f.copies.at(int(c))
			g.copies = append(g.copies, itemCopy{cp.node, cp.st})
		}
		sort.Slice(g.copies, func(i, j int) bool { return g.copies[i].node < g.copies[j].node })
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].item < groups[j].item })
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

// CheckReport returns Check's report on the events stepped so far. It
// completes the replay: Step must not be called afterwards.
func (f *Fold) CheckReport() *CheckReport {
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

// CoverageReport returns Coverage's report on the events stepped so
// far. Coverage never depends on the trace-end check, so it may be
// read at any point of the replay.
func (f *Fold) CoverageReport() *CoverageReport {
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
