package txnview

import (
	"fmt"
	"io"

	"coma/internal/obs"
)

// CheckReport is the result of replaying a trace against the protocol's
// recovery invariants.
type CheckReport struct {
	Events     int
	Txns       int
	Incomplete int   // transactions still in flight at trace end
	Rounds     int64 // coordinator rounds completed
	Violations []string
}

// OK reports whether the trace passed every check.
func (r *CheckReport) OK() bool { return len(r.Violations) == 0 }

// Write renders the report.
func (r *CheckReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "  events       %d\n", r.Events)
	fmt.Fprintf(w, "  transactions %d (%d in flight at trace end)\n", r.Txns, r.Incomplete)
	fmt.Fprintf(w, "  rounds       %d\n", r.Rounds)
	if r.OK() {
		fmt.Fprintf(w, "  invariants   ok (single master, fill legality, checkpoint atomicity, rollback persistence)\n")
		return nil
	}
	fmt.Fprintf(w, "  violations   %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
	return nil
}

// Check replays a trace and verifies the protocol invariants the paper
// argues for:
//
//  1. single master — at every quiescent point (round quiesce, commit,
//     round end, trace end) each item has at most one owner-state copy;
//  2. fill legality — a remote fill's data came from a copy that
//     existed when the transaction began, and a cold fill happened only
//     when no master existed (no fill from an invalid copy);
//  3. checkpoint atomicity — at the commit instant no transient
//     PreCommit copy and no stale Inv-CK copy survives;
//  4. rollback persistence — a recovery round leaves every surviving
//     item with exactly one owner copy (the restored or promoted
//     Shared-CK1): no master is lost across a rollback.
//
// It also cross-checks every KState event against the replayed state
// (the recorded From must match what the trace itself implies), which
// catches corrupted, reordered or truncated traces with a precise
// item/round diagnostic. Transactions are checked for well-formedness
// under Assemble's rules; the first malformation leads the violations.
func Check(events []obs.Event) *CheckReport {
	f := NewFold()
	for _, ev := range events {
		f.Step(ev)
	}
	return f.CheckReport()
}
