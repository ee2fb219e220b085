package txnview

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"coma/internal/obs"
	"coma/internal/proto"
)

// Edge is one state transition with how often the trace exercised it
// and the protocol table's description of when it happens.
type Edge struct {
	From, To proto.State
	Count    int64
	Via      string // from the protocol table; empty for unexpected edges
}

// RecoveryEdge reports whether the edge touches an ECP recovery state.
func (e Edge) RecoveryEdge() bool {
	return e.From.Recovery() || e.To.Recovery()
}

// CoverageReport diffs the transitions a trace exercised against the
// full extended-coherence-protocol transition table.
type CoverageReport struct {
	Exercised   []Edge // in the table and observed
	Unexercised []Edge // in the table, never observed (Count 0)
	Unexpected  []Edge // observed but absent from the table
}

// Coverage replays a trace (KState events plus the synthesised scan
// transforms) and diffs the observed transition matrix against
// proto.ECPTransitions. Unexercised recovery edges show which
// fault-tolerance paths a test campaign never entered; unexpected edges
// mean the simulator performed a transition the protocol does not
// define.
func Coverage(events []obs.Event) *CoverageReport {
	f := NewFold()
	for _, ev := range events {
		f.Step(ev)
	}
	return f.coverageReport()
}

// specEdges is proto.ECPTransitions with one entry per (from, to) pair,
// ordered by (from, to), so coverage reports list edges
// deterministically by construction; inSpec marks the same pairs. The
// table can describe one pair several ways (e.g. an Inv-CK copy
// vanishing at commit vs. moving by injection); the descriptions are
// merged per pair.
var specEdges, inSpec = specTable()

func specTable() ([]Edge, [proto.NumStates][proto.NumStates]bool) {
	var in [proto.NumStates][proto.NumStates]bool
	var edges []Edge
	for _, tr := range proto.ECPTransitions() {
		if in[tr.From][tr.To] {
			for i := range edges {
				e := &edges[i]
				if e.From == tr.From && e.To == tr.To && !strings.Contains(e.Via, tr.Via) {
					e.Via += "; " + tr.Via
				}
			}
			continue
		}
		in[tr.From][tr.To] = true
		edges = append(edges, Edge{From: tr.From, To: tr.To, Via: tr.Via})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges, in
}

// Write renders the report. Recovery edges are tagged so the
// fault-tolerance coverage stands out.
func (r *CoverageReport) Write(w io.Writer) error {
	tag := func(e Edge) string {
		if e.RecoveryEdge() {
			return " [recovery]"
		}
		return ""
	}
	total := len(r.Exercised) + len(r.Unexercised)
	fmt.Fprintf(w, "  protocol edges exercised: %d/%d\n", len(r.Exercised), total)
	for _, e := range r.Exercised {
		fmt.Fprintf(w, "    %-13v -> %-13v %8d  %s%s\n", e.From, e.To, e.Count, e.Via, tag(e))
	}
	if len(r.Unexercised) > 0 {
		fmt.Fprintf(w, "  unexercised: %d\n", len(r.Unexercised))
		for _, e := range r.Unexercised {
			fmt.Fprintf(w, "    %-13v -> %-13v %8s  %s%s\n", e.From, e.To, "-", e.Via, tag(e))
		}
	}
	if len(r.Unexpected) > 0 {
		fmt.Fprintf(w, "  UNEXPECTED (observed but not in the protocol table): %d\n", len(r.Unexpected))
		for _, e := range r.Unexpected {
			fmt.Fprintf(w, "    %-13v -> %-13v %8d%s\n", e.From, e.To, e.Count, tag(e))
		}
	}
	return nil
}

// UnexercisedRecovery returns the recovery-state edges the trace never
// entered — the paper's fault-tolerance paths a campaign left untested.
func (r *CoverageReport) UnexercisedRecovery() []Edge {
	var out []Edge
	for _, e := range r.Unexercised {
		if e.RecoveryEdge() {
			out = append(out, e)
		}
	}
	return out
}
