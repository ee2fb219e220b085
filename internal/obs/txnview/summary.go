package txnview

import "coma/internal/obs"

// Summary condenses a trace's invariant verdict and protocol-edge
// coverage into the four numbers an execution receipt records
// (internal/obs/receipt). It is the single place where "did this run
// uphold the protocol's invariants" becomes a comparable value, so the
// receipt producer and the attest verifier cannot drift apart.
type Summary struct {
	// OK is Check's verdict: no invariant violations.
	OK bool
	// Violations is the number of invariant violations Check found.
	Violations int
	// EdgesExercised / EdgesTotal are Coverage's protocol-edge counts
	// against the proto.ECPTransitions specification table.
	EdgesExercised int
	EdgesTotal     int
}

// Summarize runs the offline invariant checker and the coverage diff
// over one trace, in one replay, and condenses both reports.
func Summarize(events []obs.Event) Summary {
	f := NewFold()
	for _, ev := range events {
		f.Step(ev)
	}
	return f.Summary()
}
