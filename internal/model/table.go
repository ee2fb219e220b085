// Package model checks the Extended Coherence Protocol's implementation
// against its specification from two independent directions:
//
//   - Extraction (extract.go): a go/ast dataflow pass over the mesh and
//     bus protocol engines that finds every state-mutation site, resolves
//     which (From, To) transitions each site can realise, and emits a
//     code-derived transition table.
//   - Exhaustive checking (check.go): an explicit-state BFS model checker
//     over an abstract ECP configuration (k items x n abstract nodes)
//     that verifies the paper's safety invariants on every reachable
//     state and reports the reachable edge set.
//
// Both produce a Table comparable against SpecTable (the reference matrix
// proto.ECPTransitions), turning "the table is kept in sync by a comment"
// into a machine-checked property: cmd/comamodel diffs spec vs code vs a
// runtime coverage trace and exits non-zero on any drift.
package model

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"coma/internal/proto"
)

// States lists every coherence state in enum order.
var States = []proto.State{
	proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
	proto.SharedCK1, proto.SharedCK2, proto.InvCK1, proto.InvCK2,
	proto.PreCommit1, proto.PreCommit2,
}

// StateSet is a bitmask over the ten coherence states.
type StateSet uint16

// SetOf builds a set from explicit states.
func SetOf(sts ...proto.State) StateSet {
	var s StateSet
	for _, st := range sts {
		s |= 1 << st
	}
	return s
}

// AllStates is the full set.
func AllStates() StateSet { return SetOf(States...) }

// Has reports membership.
func (s StateSet) Has(st proto.State) bool { return s&(1<<st) != 0 }

// Empty reports whether no state is in the set.
func (s StateSet) Empty() bool { return s == 0 }

// Len counts members.
func (s StateSet) Len() int {
	n := 0
	for _, st := range States {
		if s.Has(st) {
			n++
		}
	}
	return n
}

// With returns the set plus one state.
func (s StateSet) With(st proto.State) StateSet { return s | 1<<st }

// Without returns the set minus one state.
func (s StateSet) Without(st proto.State) StateSet { return s &^ (1 << st) }

// Intersect returns the intersection.
func (s StateSet) Intersect(o StateSet) StateSet { return s & o }

// Union returns the union.
func (s StateSet) Union(o StateSet) StateSet { return s | o }

// Complement returns every state not in the set.
func (s StateSet) Complement() StateSet { return AllStates() &^ s }

// List returns the members in enum order.
func (s StateSet) List() []proto.State {
	var out []proto.State
	for _, st := range States {
		if s.Has(st) {
			out = append(out, st)
		}
	}
	return out
}

// String renders "Invalid|Shared" (or "(none)").
func (s StateSet) String() string {
	if s == 0 {
		return "(none)"
	}
	parts := make([]string, 0, 10)
	for _, st := range s.List() {
		parts = append(parts, st.String())
	}
	return strings.Join(parts, "|")
}

// ClassSet builds the set of states satisfying a predicate — used to
// resolve classifier-method guards (st.Replaceable() etc.) against the
// actual proto definitions instead of a hand-copied list.
func ClassSet(pred func(proto.State) bool) StateSet {
	var s StateSet
	for _, st := range States {
		if pred(st) {
			s |= 1 << st
		}
	}
	return s
}

// Table is a set of transitions with provenance strings (the spec's Via
// descriptions, or the extractor's source positions).
type Table struct {
	Name string
	m    map[proto.Edge][]string
}

// NewTable returns an empty named table.
func NewTable(name string) *Table {
	return &Table{Name: name, m: make(map[proto.Edge][]string)}
}

// Add records an edge with one provenance string. Self-loops are not
// transitions and are dropped. Duplicate provenance is kept once.
func (t *Table) Add(e proto.Edge, via string) {
	if e.From == e.To {
		return
	}
	for _, v := range t.m[e] {
		if v == via {
			return
		}
	}
	t.m[e] = append(t.m[e], via)
}

// Has reports whether the table contains the edge.
func (t *Table) Has(e proto.Edge) bool { _, ok := t.m[e]; return ok }

// Len counts distinct edges.
func (t *Table) Len() int { return len(t.m) }

// Edges returns the distinct edges sorted by (From, To).
func (t *Table) Edges() []proto.Edge {
	return slices.SortedFunc(maps.Keys(t.m), proto.Edge.Compare)
}

// Provenance returns the sorted provenance strings of an edge.
func (t *Table) Provenance(e proto.Edge) []string {
	out := append([]string(nil), t.m[e]...)
	sort.Strings(out)
	return out
}

// Write renders the table deterministically.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: %d edges\n", t.Name, t.Len())
	for _, e := range t.Edges() {
		fmt.Fprintf(w, "  %-13v -> %-13v  %s\n", e.From, e.To,
			strings.Join(t.Provenance(e), "; "))
	}
}

// SpecTable builds the reference table from proto.ECPTransitions.
func SpecTable() *Table {
	t := NewTable("spec")
	for _, tr := range proto.ECPTransitions() {
		t.Add(proto.Edge{From: tr.From, To: tr.To}, tr.Via)
	}
	return t
}

// DiffResult lists the edges present in only one of two tables.
type DiffResult struct {
	AName, BName string
	OnlyA, OnlyB []proto.Edge
}

// Clean reports whether the tables agree.
func (d *DiffResult) Clean() bool { return len(d.OnlyA) == 0 && len(d.OnlyB) == 0 }

// Write renders the differences (nothing when clean).
func (d *DiffResult) Write(w io.Writer, a, b *Table) {
	for _, e := range d.OnlyA {
		fmt.Fprintf(w, "  only in %s: %-13v -> %-13v  %s\n", d.AName, e.From, e.To,
			strings.Join(a.Provenance(e), "; "))
	}
	for _, e := range d.OnlyB {
		fmt.Fprintf(w, "  only in %s: %-13v -> %-13v  %s\n", d.BName, e.From, e.To,
			strings.Join(b.Provenance(e), "; "))
	}
}

// Diff compares two tables edge-wise.
func Diff(a, b *Table) *DiffResult {
	d := &DiffResult{AName: a.Name, BName: b.Name}
	for _, e := range a.Edges() {
		if !b.Has(e) {
			d.OnlyA = append(d.OnlyA, e)
		}
	}
	for _, e := range b.Edges() {
		if !a.Has(e) {
			d.OnlyB = append(d.OnlyB, e)
		}
	}
	return d
}
