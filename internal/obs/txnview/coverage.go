package txnview

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"coma/internal/obs"
	"coma/internal/proto"
)

// Edge is one state transition with how often the trace exercised it
// and the protocol table's description of when it happens.
type Edge struct {
	proto.Edge
	Count int64
	Via   string // from the protocol table; empty for unexpected edges
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
	return f.CoverageReport()
}

// specEdges is proto.ECPEdges, each edge carrying its descriptions;
// inSpec marks the same pairs. The table can describe one pair several
// ways (e.g. an Inv-CK copy vanishing at commit vs. moving by
// injection); the descriptions are merged per pair.
var specEdges, inSpec = specTable()

func specTable() ([]Edge, [proto.NumStates][proto.NumStates]bool) {
	var in [proto.NumStates][proto.NumStates]bool
	var edges []Edge
	for _, e := range proto.ECPEdges() {
		in[e.From][e.To] = true
		edges = append(edges, Edge{Edge: e})
	}
	for _, tr := range proto.ECPTransitions() {
		i, ok := slices.BinarySearchFunc(edges, proto.Edge{From: tr.From, To: tr.To},
			func(e Edge, t proto.Edge) int { return e.Compare(t) })
		switch {
		case !ok: // a self-loop, which is no edge
		case edges[i].Via == "":
			edges[i].Via = tr.Via
		case !strings.Contains(edges[i].Via, tr.Via):
			edges[i].Via += "; " + tr.Via
		}
	}
	return edges, in
}

// Write renders the report. Recovery edges are tagged so the
// fault-tolerance coverage stands out.
func (r *CoverageReport) Write(w io.Writer) error {
	tag := func(e Edge) string {
		if e.Recovery() {
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
		if e.Recovery() {
			out = append(out, e)
		}
	}
	return out
}
