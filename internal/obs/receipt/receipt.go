// Package receipt implements verifiable execution receipts: canonical,
// byte-deterministic coma-receipt/v1 JSON documents that pin everything
// needed to re-verify a simulation result after the fact — the run's
// content address (config.RunIdentity hash), the code revision, a
// SHA-256 digest of the canonical result payload, a digest of the
// observability trace, the simulated cycle/event totals, the txnview
// invariant verdict with protocol-edge coverage, and who produced the
// run. Receipts can optionally carry an HMAC-SHA256 signature for
// fleets whose transport is not trusted.
//
// Determinism is the contract: the encoding mirrors config.RunIdentity
// (pure-data struct, encoding/json declaration order, golden-pinned in
// receipt_test.go) and nothing in this package reads the wall clock —
// enforced by the comalint obswallclock analyzer — so two same-seed
// runs of the same revision emit byte-identical receipts. Verification
// is the inverse operation: Receipt.Attest recomputes every derivable
// field from the artifacts and names the exact field that diverged
// (surfaced by `comatrace attest`).
package receipt

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/txnview"
	"coma/internal/stats"
)

// Schema versions the canonical receipt encoding. Bump it whenever a
// field is added, removed, renamed or reordered so old and new receipts
// can never be confused; the golden test pins the current bytes.
const Schema = "coma-receipt/v1"

// ProducerLocal is the producer identity of a receipt emitted by the
// process that ran the simulation in-process (comasim, single-process
// comad). Cluster workers use their worker name instead.
const ProducerLocal = "local"

// Verdict is the recorded outcome of the txnview invariant check.
type Verdict string

// Invariant verdicts; VerdictUnchecked is implicit (Invariants nil).
const (
	VerdictOK        Verdict = "ok"
	VerdictViolated  Verdict = "violated"
	VerdictUnchecked Verdict = "unchecked"
)

// Invariants is the recorded txnview verdict: the output of
// txnview.Summarize over the run's trace.
type Invariants struct {
	Verdict        Verdict `json:"verdict"`
	Violations     int     `json:"violations,omitempty"`
	EdgesExercised int     `json:"edges_exercised"`
	EdgesTotal     int     `json:"edges_total"`
}

// Receipt is one execution receipt. Like config.RunIdentity it is pure
// data — scalars and one pointer-to-struct-of-scalars — so its
// canonical JSON encoding is total and deterministic: encoding/json
// emits struct fields in declaration order. Changing the declaration
// order IS a schema change and must bump Schema.
type Receipt struct {
	// Schema is the encoding version; CanonicalJSON fills it when empty.
	Schema string `json:"schema"`
	// RunHash is the run's content address (config.RunIdentity.Hash) —
	// the same key the comad store files the result under.
	RunHash string `json:"run_hash"`
	// Revision pins the simulator code that produced the result.
	Revision string `json:"revision,omitempty"`
	// Producer identifies who ran the simulation: ProducerLocal, or the
	// cluster worker's name.
	Producer string `json:"producer"`

	// ResultDigest is the lowercase-hex SHA-256 of the canonical result
	// payload (server.MarshalResult bytes — exactly what GET
	// /v1/jobs/{id}/result serves).
	ResultDigest string `json:"result_digest"`
	// SimCycles and SimEvents are the run's simulated execution time and
	// kernel event total, copied from the result so a receipt is
	// meaningful without the payload in hand.
	SimCycles int64 `json:"sim_cycles"`
	SimEvents int64 `json:"sim_events"`

	// TraceDigest is the SHA-256 of the run's observability trace in
	// canonical JSONL encoding (obs.WriteJSONL bytes); empty when the
	// run recorded no trace. TraceEvents is the event count.
	TraceDigest string `json:"trace_digest,omitempty"`
	TraceEvents int64  `json:"trace_events,omitempty"`

	// Invariants is the txnview verdict over the trace; nil when no
	// trace was recorded (verdict "unchecked").
	Invariants *Invariants `json:"invariants,omitempty"`

	// Signature is the lowercase-hex HMAC-SHA256 of the receipt's
	// canonical encoding with this field cleared; empty when unsigned.
	Signature string `json:"sig,omitempty"`
}

// TraceMask is the event-kind set receipt-grade traces record: every
// kind the txnview checker and causal assembler consume, dropping only
// the two high-volume sampling kinds they ignore (mesh queue-depth
// samples and injection ring probes). Recording under this mask keeps
// the always-on invariant gate cheap without weakening the verdict.
const TraceMask = obs.MaskAll &^ (1<<obs.KQueueDepth | 1<<obs.KInjectProbe)

// Digest returns the lowercase-hex SHA-256 of b — the digest form used
// throughout the receipt schema.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TraceJSONL returns the canonical JSONL encoding of a trace — the
// bytes TraceDigest is computed over, byte-identical to what
// obs.WriteJSONL writes to a trace file.
func TraceJSONL(events []obs.Event) []byte {
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		// Unreachable: bytes.Buffer writes cannot fail.
		panic(fmt.Sprintf("receipt: encoding trace: %v", err))
	}
	return buf.Bytes()
}

// ParseResult strictly decodes a canonical result payload
// (server.MarshalResult bytes): unknown fields are rejected and the
// re-encoding must be byte-identical to the input, so bytes that would
// not round-trip through the store's canonical form never verify.
func ParseResult(b []byte) (*stats.Run, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var run stats.Run
	if err := dec.Decode(&run); err != nil {
		return nil, fmt.Errorf("receipt: decoding result: %w", err)
	}
	if dec.More() {
		return nil, errors.New("receipt: decoding result: trailing data after payload")
	}
	re, err := json.Marshal(&run)
	if err != nil {
		return nil, fmt.Errorf("receipt: re-encoding result: %w", err)
	}
	if !bytes.Equal(re, bytes.TrimSpace(b)) {
		return nil, errors.New("receipt: result bytes are not in canonical form (round-trip mismatch)")
	}
	return &run, nil
}

// Gate is the always-on receipt gate as an obs.Observer. Tee it onto a
// run's event stream: it keeps the kinds in TraceMask, hashes each
// one's canonical JSONL line, steps the txnview fold and, from NewGate,
// appends the event to a packed log (obs.Packer), so the verdict is
// ready when the run ends and no event slice is ever held. Finish then
// assembles the receipt. A Gate serves one run and is not safe for
// concurrent use.
//
// The JSONL lines go to one fixed-size chunk that is fed to SHA-256
// and refilled whenever it fills. The packed log is the only trace a
// NewGate gate keeps, about a tenth of the JSONL size; it is kept in
// fixed-size chunks too, so it grows without re-copying itself, and
// Finish copies it once into an exactly sized slice for the caller. A
// gate from NewDigestGate keeps no packed log.
type Gate struct {
	keep   bool   // keep the packed log for Finish to return
	line   []byte // the JSONL chunk being filled, hashed when full
	digest hash.Hash
	packer obs.Packer
	packs  [][]byte // full packed chunks
	pack   []byte   // the packed chunk being filled
	size   int      // bytes in packs
	fold   *txnview.Fold
	events int64
}

const (
	// chunkSize is the capacity of the JSONL chunk and of each packed
	// chunk.
	chunkSize = 64 << 10
	// lineRoom is the free space the JSONL chunk must have to take
	// another line: more than the longest canonical line (≈190 bytes),
	// so a line never makes the chunk reallocate.
	lineRoom = 512
)

// NewGate returns a gate for one run.
func NewGate() *Gate {
	return &Gate{keep: true, digest: sha256.New(), fold: txnview.NewFold()}
}

// NewDigestGate returns a gate for one run whose caller needs the
// receipt but not the trace: its Finish returns the same receipt as a
// NewGate gate's, and a nil trace.
func NewDigestGate() *Gate {
	return &Gate{digest: sha256.New(), fold: txnview.NewFold()}
}

// Emit implements obs.Observer: kinds outside TraceMask are dropped.
// An event allocates nothing, apart from a new packed chunk every few
// thousand events.
func (g *Gate) Emit(ev obs.Event) {
	if TraceMask.Has(ev.Kind) {
		g.add(ev)
	}
}

// add records one event, whatever its kind.
func (g *Gate) add(ev obs.Event) {
	if cap(g.line)-len(g.line) < lineRoom {
		g.digest.Write(g.line)
		if g.line == nil {
			g.line = make([]byte, 0, chunkSize)
		}
		g.line = g.line[:0]
	}
	g.line = ev.AppendJSONL(g.line)
	if g.keep {
		if cap(g.pack)-len(g.pack) < obs.MaxPackedLen {
			if len(g.pack) > 0 {
				g.packs = append(g.packs, g.pack)
				g.size += len(g.pack)
			}
			g.pack = make([]byte, 0, chunkSize)
		}
		g.pack = g.packer.Append(g.pack, &ev)
	}
	g.fold.Step(ev)
	g.events++
}

// Finish assembles the receipt for the completed run: the result
// payload must be canonical (it is round-trip checked). With no event
// recorded the receipt records no trace and the verdict is unchecked.
// It returns the receipt unsigned plus the packed log of the trace its
// TraceDigest covers (obs.UnpackJSONL expands it to the canonical JSONL
// bytes; nil from a NewDigestGate gate), sized exactly (cap == len)
// because callers may hold it; the gate keeps no reference to it. Call it
// once.
func (g *Gate) Finish(id config.RunIdentity, result []byte, producer string) (Receipt, []byte, error) {
	run, err := ParseResult(result)
	if err != nil {
		return Receipt{}, nil, err
	}
	r := Receipt{
		Schema:       Schema,
		RunHash:      id.Hash(),
		Revision:     id.Revision,
		Producer:     producer,
		ResultDigest: Digest(result),
		SimCycles:    run.Cycles,
		SimEvents:    run.Events,
	}
	if g.events == 0 {
		return r, nil, nil
	}
	g.digest.Write(g.line)
	var packed []byte
	if g.keep {
		packed = make([]byte, 0, g.size+len(g.pack))
		for _, c := range g.packs {
			packed = append(packed, c...)
		}
		packed = append(packed, g.pack...)
	}
	g.line, g.packs, g.pack = nil, nil, nil
	r.TraceDigest = hex.EncodeToString(g.digest.Sum(nil))
	r.TraceEvents = g.events
	r.Invariants = invariantsOf(g.fold.Summary())
	return r, packed, nil
}

// Build assembles the receipt for one completed run from its recorded
// trace, by driving a Gate over every event given (no mask is applied:
// the caller chose what to record), and returns it with the trace's
// canonical JSONL bytes, expanded from the gate's packed log. nil or
// empty events: the receipt records no trace and the verdict is
// unchecked.
func Build(id config.RunIdentity, result []byte, events []obs.Event, producer string) (Receipt, []byte, error) {
	g := NewGate()
	for _, ev := range events {
		g.add(ev)
	}
	r, packed, err := g.Finish(id, result, producer)
	if err != nil || packed == nil {
		return r, nil, err
	}
	var trace bytes.Buffer
	if err := obs.UnpackJSONL(&trace, packed); err != nil {
		return Receipt{}, nil, fmt.Errorf("receipt: expanding trace: %w", err)
	}
	return r, trace.Bytes(), nil
}

// invariantsOf condenses the txnview verdict for the receipt.
func invariantsOf(s txnview.Summary) *Invariants {
	inv := &Invariants{
		Verdict:        VerdictOK,
		Violations:     s.Violations,
		EdgesExercised: s.EdgesExercised,
		EdgesTotal:     s.EdgesTotal,
	}
	if !s.OK {
		inv.Verdict = VerdictViolated
	}
	return inv
}

// VerdictLabel is the receipt's verdict as a metrics label:
// "ok", "violated", or "unchecked" when no trace was recorded.
func (r Receipt) VerdictLabel() string {
	if r.Invariants == nil {
		return string(VerdictUnchecked)
	}
	return string(r.Invariants.Verdict)
}

// CanonicalJSON returns the canonical encoding: compact JSON with
// fields in declaration order and Schema defaulted. It panics on a
// marshalling error, unreachable for this pure-data struct.
func (r Receipt) CanonicalJSON() []byte {
	if r.Schema == "" {
		r.Schema = Schema
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("receipt: canonical encoding failed: %v", err))
	}
	return b
}

// signingBytes is the canonical encoding with Signature cleared — what
// the HMAC covers, so the signature does not sign itself.
func (r Receipt) signingBytes() []byte {
	r.Signature = ""
	return r.CanonicalJSON()
}

// Sign returns a copy carrying the lowercase-hex HMAC-SHA256 of the
// receipt's canonical encoding (Signature cleared) under key.
func (r Receipt) Sign(key []byte) Receipt {
	mac := hmac.New(sha256.New, key)
	mac.Write(r.signingBytes())
	r.Signature = hex.EncodeToString(mac.Sum(nil))
	return r
}

// VerifySignature checks the receipt's HMAC under key.
func (r Receipt) VerifySignature(key []byte) error {
	if r.Signature == "" {
		return errors.New("receipt is unsigned")
	}
	got, err := hex.DecodeString(r.Signature)
	if err != nil {
		return fmt.Errorf("malformed signature: %v", err)
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(r.signingBytes())
	if !hmac.Equal(got, mac.Sum(nil)) {
		return errors.New("HMAC mismatch (wrong key, or receipt modified)")
	}
	return nil
}

// Parse strictly decodes one receipt: unknown fields are rejected, the
// schema must match, and the input must be byte-identical to the
// receipt's canonical encoding (modulo surrounding whitespace) — a
// receipt that would not re-encode to itself is not a receipt.
func Parse(b []byte) (Receipt, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Receipt
	if err := dec.Decode(&r); err != nil {
		return Receipt{}, fmt.Errorf("receipt: decoding: %w", err)
	}
	if dec.More() {
		return Receipt{}, errors.New("receipt: decoding: trailing data after receipt")
	}
	if r.Schema != Schema {
		return Receipt{}, fmt.Errorf("receipt: schema %q, want %q", r.Schema, Schema)
	}
	if !bytes.Equal(r.CanonicalJSON(), bytes.TrimSpace(b)) {
		return Receipt{}, errors.New("receipt: not in canonical form (re-encoding differs)")
	}
	return r, nil
}
