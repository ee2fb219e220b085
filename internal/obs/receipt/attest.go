package receipt

import (
	"bytes"
	"fmt"

	"coma/internal/obs"
	"coma/internal/obs/txnview"
)

// Artifacts are the recomputable inputs to attestation: the canonical
// result payload and the canonical JSONL trace. A nil slice skips that
// artifact's checks (attesting a cluster receipt whose trace stayed on
// the worker, for example).
type Artifacts struct {
	Result []byte
	Trace  []byte
}

// FieldError reports the first receipt field whose recorded value
// diverges from what the artifacts recompute to. Field is the JSON
// field path ("result_digest", "invariants.verdict", ...), so
// `comatrace attest` can name exactly what was tampered with.
type FieldError struct {
	Field  string
	Detail string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("field %s: %s", e.Field, e.Detail)
}

// Attest verifies the receipt against the artifacts: every derivable
// field is recomputed — digests, cycle/event totals, and the full
// txnview invariant replay — and compared with the recorded value.
// With a non-nil key the HMAC signature is verified first. The error,
// when non-nil, is a *FieldError naming the first divergent field (or
// a parse error when an artifact is not even well-formed).
func (r Receipt) Attest(a Artifacts, key []byte) error {
	if r.Schema != "" && r.Schema != Schema {
		return &FieldError{Field: "schema", Detail: fmt.Sprintf("recorded %q, want %q", r.Schema, Schema)}
	}
	if key != nil {
		if err := r.VerifySignature(key); err != nil {
			return &FieldError{Field: "sig", Detail: err.Error()}
		}
	}
	if a.Result != nil {
		if err := r.attestResult(a.Result); err != nil {
			return err
		}
	}
	if a.Trace != nil {
		if err := r.attestTrace(a.Trace); err != nil {
			return err
		}
	}
	return nil
}

func (r Receipt) attestResult(result []byte) error {
	if got := Digest(result); got != r.ResultDigest {
		return &FieldError{Field: "result_digest",
			Detail: fmt.Sprintf("recorded %s, result artifact hashes to %s", r.ResultDigest, got)}
	}
	run, err := ParseResult(result)
	if err != nil {
		return &FieldError{Field: "result_digest",
			Detail: fmt.Sprintf("result artifact matches the digest but is not a canonical payload: %v", err)}
	}
	if run.Cycles != r.SimCycles {
		return &FieldError{Field: "sim_cycles",
			Detail: fmt.Sprintf("recorded %d, result says %d", r.SimCycles, run.Cycles)}
	}
	if run.Events != r.SimEvents {
		return &FieldError{Field: "sim_events",
			Detail: fmt.Sprintf("recorded %d, result says %d", r.SimEvents, run.Events)}
	}
	return nil
}

func (r Receipt) attestTrace(trace []byte) error {
	if r.TraceDigest == "" {
		return &FieldError{Field: "trace_digest",
			Detail: "receipt records no trace, but a trace artifact was supplied"}
	}
	if got := Digest(trace); got != r.TraceDigest {
		return &FieldError{Field: "trace_digest",
			Detail: fmt.Sprintf("recorded %s, trace artifact hashes to %s", r.TraceDigest, got)}
	}
	// Replay line by line: the fold needs no event slice, so attesting
	// a trace costs the artifact's bytes and the fold's state only.
	fold := txnview.NewFold()
	var events int64
	err := obs.ScanJSONL(bytes.NewReader(trace), func(ev obs.Event) error {
		fold.Step(ev)
		events++
		return nil
	})
	if err != nil {
		return &FieldError{Field: "trace_digest",
			Detail: fmt.Sprintf("trace artifact matches the digest but does not parse: %v", err)}
	}
	if events != r.TraceEvents {
		return &FieldError{Field: "trace_events",
			Detail: fmt.Sprintf("recorded %d, trace holds %d", r.TraceEvents, events)}
	}
	want := invariantsOf(fold.Summary())
	got := r.Invariants
	switch {
	case got == nil:
		return &FieldError{Field: "invariants", Detail: "receipt records no verdict for its trace"}
	case got.Verdict != want.Verdict:
		return &FieldError{Field: "invariants.verdict",
			Detail: fmt.Sprintf("recorded %q, replay says %q", got.Verdict, want.Verdict)}
	case got.Violations != want.Violations:
		return &FieldError{Field: "invariants.violations",
			Detail: fmt.Sprintf("recorded %d, replay found %d", got.Violations, want.Violations)}
	case got.EdgesExercised != want.EdgesExercised:
		return &FieldError{Field: "invariants.edges_exercised",
			Detail: fmt.Sprintf("recorded %d, replay counted %d", got.EdgesExercised, want.EdgesExercised)}
	case got.EdgesTotal != want.EdgesTotal:
		return &FieldError{Field: "invariants.edges_total",
			Detail: fmt.Sprintf("recorded %d, spec table holds %d", got.EdgesTotal, want.EdgesTotal)}
	}
	return nil
}
