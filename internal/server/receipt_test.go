package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/proto"
	"coma/internal/stats"
)

// fetch GETs a job sub-resource, returning status code and body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestLocalJobEmitsReceipt: every locally executed job leaves a receipt
// in the store (unchecked verdict here: the counting runner never emits
// observability events), served on /receipt and counted on /metrics.
func TestLocalJobEmitsReceipt(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Revision: "rcpt-rev",
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			return fakeRun(id), nil
		}})
	resp, st := postJob(t, ts, specJSON(1), true)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: status %d state %s", resp.StatusCode, st.State)
	}

	code, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/receipt")
	if code != http.StatusOK {
		t.Fatalf("GET receipt: status %d (%s)", code, body)
	}
	rcpt, err := receipt.Parse(body)
	if err != nil {
		t.Fatalf("served receipt does not parse: %v", err)
	}
	if rcpt.RunHash != st.ID || rcpt.Producer != receipt.ProducerLocal {
		t.Fatalf("receipt = %s, want run_hash %s producer local", body, st.ID)
	}
	if rcpt.VerdictLabel() != "unchecked" {
		t.Fatalf("verdict = %s, want unchecked (no events recorded)", rcpt.VerdictLabel())
	}
	if rcpt.Revision != "rcpt-rev" {
		t.Fatalf("receipt revision = %q, want rcpt-rev", rcpt.Revision)
	}

	// The receipt attests against the exact bytes /result serves.
	code, result := fetch(t, ts, "/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	if err := rcpt.Attest(receipt.Artifacts{Result: result}, nil); err != nil {
		t.Fatalf("served receipt fails against served result: %v", err)
	}

	m := parseExposition(t, scrape(t, ts))
	if m[`coma_receipts_total{verdict="unchecked"}`] != 1 {
		t.Fatalf("receipts{unchecked} = %v, want 1", m[`coma_receipts_total{verdict="unchecked"}`])
	}

	// No trace was recorded (no events), so /trace is absent.
	if code, _ := fetch(t, ts, "/v1/jobs/"+st.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("GET trace: status %d, want 404", code)
	}
}

// TestRealRunReceiptAttestsEndToEnd drives the real simulator through
// the daemon and closes the whole loop over HTTP: receipt + result +
// trace fetched, signature verified, every digest and the invariant
// verdict recomputed.
func TestRealRunReceiptAttestsEndToEnd(t *testing.T) {
	key := []byte("e2e-receipt-key")
	_, ts := newTestServer(t, Options{Workers: 1, ReceiptKey: key})
	resp, st := postJob(t, ts, `{"app":"uniform","nodes":4,"protocol":"ecp","seed":11,"scale":0.001,"hz":50}`, true)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: status %d state %s err %q", resp.StatusCode, st.State, st.Error)
	}
	_, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/receipt")
	rcpt, err := receipt.Parse(body)
	if err != nil {
		t.Fatalf("receipt: %v", err)
	}
	if rcpt.VerdictLabel() != "ok" {
		t.Fatalf("verdict = %s, want ok", rcpt.VerdictLabel())
	}
	if rcpt.TraceEvents == 0 || rcpt.Invariants.EdgesTotal != 35 {
		t.Fatalf("receipt trace summary implausible: %s", body)
	}
	_, result := fetch(t, ts, "/v1/jobs/"+st.ID+"/result")
	code, trace := fetch(t, ts, "/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if err := rcpt.Attest(receipt.Artifacts{Result: result, Trace: trace}, key); err != nil {
		t.Fatalf("end-to-end attestation failed: %v", err)
	}
	// Tamper check across the HTTP surface too: one byte in the served
	// trace must be caught.
	bad := append([]byte(nil), trace...)
	bad[len(bad)/2] ^= 1
	err = rcpt.Attest(receipt.Artifacts{Result: result, Trace: bad}, key)
	fe, ok := err.(*receipt.FieldError)
	if !ok || fe.Field != "trace_digest" {
		t.Fatalf("tampered trace: err = %v, want trace_digest field error", err)
	}
}

// TestStoredTraceIsExactSize: the packed trace filed beside a receipt
// holds no spare capacity. The store keeps one per job, so a grown
// append buffer would pin up to twice its size for as long as the
// entry lives.
func TestStoredTraceIsExactSize(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	resp, st := postJob(t, ts, `{"app":"mp3d","nodes":4,"protocol":"ecp","seed":3,"scale":0.002,"hz":400}`, true)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: status %d state %s err %q", resp.StatusCode, st.State, st.Error)
	}
	trace, ok := s.store.GetAux(st.ID, AuxTracePack)
	if !ok || len(trace) == 0 {
		t.Fatal("no trace stored beside the receipt")
	}
	if cap(trace) != len(trace) {
		t.Fatalf("stored trace: len %d, cap %d; want cap == len", len(trace), cap(trace))
	}
}

// tracedSpec is a real run quick enough to repeat: its receipt records
// a trace.
const tracedSpec = `{"app":"uniform","nodes":4,"protocol":"ecp","seed":11,"scale":0.001,"hz":50}`

// runTraced submits tracedSpec (or a seed variant) and returns the
// job's status, receipt and served JSONL trace, requiring that the
// trace attests.
func runTraced(t *testing.T, ts *httptest.Server, spec string) (JobStatus, receipt.Receipt, []byte) {
	t.Helper()
	resp, st := postJob(t, ts, spec, true)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: status %d state %s err %q", resp.StatusCode, st.State, st.Error)
	}
	_, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/receipt")
	rcpt, err := receipt.Parse(body)
	if err != nil {
		t.Fatalf("receipt: %v", err)
	}
	code, trace := fetch(t, ts, "/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d (%s)", code, trace)
	}
	if err := rcpt.Attest(receipt.Artifacts{Trace: trace}, nil); err != nil {
		t.Fatalf("served trace fails attestation: %v", err)
	}
	return st, rcpt, trace
}

// requireDamagedTrace500 requires GET /trace to answer a JSON 500
// error, with no part of a trace in the body.
func requireDamagedTrace500(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("damaged trace: body is not a JSON error: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body.Error == "" ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("damaged trace: status %d, type %q, error %q; want a JSON 500",
			resp.StatusCode, resp.Header.Get("Content-Type"), body.Error)
	}
}

// TestDamagedStoredTraceAnswers500: a packed trace that does not decode
// (here cut short by one byte, which always truncates its last event)
// gets a 500 JSON error from /trace, never a 200 with a cut body.
func TestDamagedStoredTraceAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	st, _, _ := runTraced(t, ts, tracedSpec)
	packed, _ := s.store.GetAux(st.ID, AuxTracePack)
	if err := s.store.PutAux(st.ID, AuxTracePack, packed[:len(packed)-1]); err != nil {
		t.Fatal(err)
	}
	requireDamagedTrace500(t, ts, st.ID)
}

// TestCacheDirTraceRestart: with -cache-dir, a restarted daemon reads
// the <hash>.trace.v2.pack file through and serves byte-identical JSONL;
// a damaged file answers a 500 JSON error.
func TestCacheDirTraceRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, Revision: "r1"}
	_, ts1 := newTestServer(t, opts)
	st, _, want := runTraced(t, ts1, tracedSpec)
	ts1.Close()

	_, ts2 := newTestServer(t, opts)
	st2, _, got := runTraced(t, ts2, tracedSpec)
	if st2.Cache != "hit" {
		t.Fatalf("restarted daemon: cache %q, want hit", st2.Cache)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace served after restart differs from the one served before")
	}
	ts2.Close()

	path := filepath.Join(dir, st.ID+"."+AuxTracePack)
	packed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	packed[0] = 0x7f // no event kind
	if err := os.WriteFile(path, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, opts)
	if resp, st3 := postJob(t, ts3, tracedSpec, true); resp.StatusCode != http.StatusOK || st3.Cache != "hit" {
		t.Fatalf("third start: status %d cache %q, want a hit", resp.StatusCode, st3.Cache)
	}
	requireDamagedTrace500(t, ts3, st.ID)
}

// TestCacheDirIgnoresOldCodecTrace: a -cache-dir left by a daemon
// that packed traces with the earlier codec, under the earlier
// <hash>.trace.pack name, never makes /trace answer 200 with a trace
// that fails to attest against the stored receipt. The old log is not
// read at all: the job has no trace (404), rather than a damaged one.
func TestCacheDirIgnoresOldCodecTrace(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, Revision: "r1"}
	_, ts1 := newTestServer(t, opts)
	st, rcpt, trace := runTraced(t, ts1, tracedSpec)
	ts1.Close()
	events, err := obs.ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, st.ID+"."+AuxTracePack)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, st.ID+".trace.pack"), packV1(events), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, opts)
	if resp, st2 := postJob(t, ts2, tracedSpec, true); resp.StatusCode != http.StatusOK || st2.Cache != "hit" {
		t.Fatalf("restart: status %d cache %q, want a hit", resp.StatusCode, st2.Cache)
	}
	code, body := fetch(t, ts2, "/v1/jobs/"+st.ID+"/trace")
	if code == http.StatusOK {
		if err := rcpt.Attest(receipt.Artifacts{Trace: body}, nil); err != nil {
			t.Fatalf("/trace answered 200 with a trace that fails attestation: %v", err)
		}
	}
	if code != http.StatusNotFound {
		t.Fatalf("/trace: status %d (%s), want 404: the old-codec log must not be read", code, body)
	}
}

// packV1 packs events in the earlier codec's format: a kind byte (0x80
// flags an optional txn or parent), then zig-zag varints for time and
// txn as deltas from the previous event, node, item, and always a and b.
func packV1(events []obs.Event) []byte {
	var buf []byte
	var time int64
	var txn proto.TxnID
	for _, ev := range events {
		inject := ev.Kind == obs.KInjectProbe || ev.Kind == obs.KInjectAccept
		k := byte(ev.Kind)
		if inject && ev.Txn != proto.NoTxn || ev.Kind == obs.KTxnBegin && ev.Par != proto.NoTxn {
			k |= 0x80
		}
		buf = append(buf, k)
		buf = binary.AppendVarint(buf, ev.Time-time)
		time = ev.Time
		buf = binary.AppendVarint(buf, int64(ev.Node))
		buf = binary.AppendVarint(buf, int64(ev.Item))
		switch {
		case ev.Kind == obs.KState:
			buf = append(buf, byte(ev.From), byte(ev.To))
		case inject:
			buf = append(buf, byte(ev.Cause))
			if k&0x80 != 0 {
				buf = binary.AppendVarint(buf, int64(ev.Txn-txn))
				txn = ev.Txn
			}
		case ev.Kind == obs.KTxnBegin || ev.Kind == obs.KTxnHop || ev.Kind == obs.KTxnEnd:
			buf = binary.AppendVarint(buf, int64(ev.Txn-txn))
			txn = ev.Txn
			if k&0x80 != 0 {
				buf = binary.AppendVarint(buf, int64(ev.Par-ev.Txn))
			}
		}
		buf = binary.AppendVarint(buf, ev.A)
		buf = binary.AppendVarint(buf, ev.B)
	}
	return buf
}

// TestStoreAuxBytesGauge: comad_store_aux_bytes shows the memory the
// stored receipts and traces hold. A cold job grows the trace gauge by
// the length of its packed log, well under the JSONL /trace serves; a
// cache hit stores nothing new.
func TestStoreAuxBytesGauge(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	gauges := func() (float64, float64) {
		m := parseExposition(t, scrape(t, ts))
		return m[`comad_store_aux_bytes{kind="receipt"}`], m[`comad_store_aux_bytes{kind="trace"}`]
	}
	var wantReceipt, wantTrace int
	for _, spec := range []string{tracedSpec, strings.Replace(tracedSpec, `"seed":11`, `"seed":12`, 1), tracedSpec} {
		st, _, jsonl := runTraced(t, ts, spec)
		if st.Cache != "hit" {
			rcpt, _ := s.store.GetAux(st.ID, AuxReceipt)
			packed, _ := s.store.GetAux(st.ID, AuxTracePack)
			wantReceipt += len(rcpt)
			wantTrace += len(packed)
			if 5*len(packed) > len(jsonl) {
				t.Fatalf("packed trace %d bytes for %d bytes of JSONL, want at most a fifth", len(packed), len(jsonl))
			}
		}
		if r, tr := gauges(); r != float64(wantReceipt) || tr != float64(wantTrace) {
			t.Fatalf("after job %.12s (%s): aux bytes receipt %v trace %v, want %d and %d",
				st.ID, st.Cache, r, tr, wantReceipt, wantTrace)
		}
	}
}

// TestCompleteRejectsGarbagePayload: a payload that fails the
// MarshalResult round trip is refused with 422, the job requeues with
// its attempt burned (lease-expiry semantics), and the mismatch metric
// increments; a subsequent well-formed completion lands byte-identical.
func TestCompleteRejectsGarbagePayload(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "test-rev"})
	wid := registerWorker(t, ts, "sloppy", 1)
	resp, st := postJob(t, ts, specJSON(21), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if lj := leaseJob(t, ts, wid); lj == nil {
		t.Fatal("lease: no job")
	}

	for _, garbage := range []string{`"not a run"`, `{"bogus_field":1}`, `{}`} {
		cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
			CompleteRequest{JobID: st.ID, Result: json.RawMessage(garbage)}, nil)
		if cresp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("garbage %q: status %d, want 422", garbage, cresp.StatusCode)
		}
		// Only the first rejection requeues (the worker no longer owns
		// the job afterwards); all of them count as mismatches.
	}
	got := jobStatus(t, ts, st.ID)
	if got.State != StateQueued || got.Requeues != 1 {
		t.Fatalf("after rejection: state=%s requeues=%d, want queued/1", got.State, got.Requeues)
	}
	m := parseExposition(t, scrape(t, ts))
	if m["coma_cluster_digest_mismatches_total"] != 3 {
		t.Fatalf("digest mismatches = %v, want 3", m["coma_cluster_digest_mismatches_total"])
	}

	// The same worker re-leases the requeued job and completes properly.
	lj := leaseJob(t, ts, wid)
	if lj == nil || lj.Attempt != 1 {
		t.Fatalf("re-lease = %+v, want attempt 1", lj)
	}
	payload, err := MarshalResult(fakeRun(lj.Identity))
	if err != nil {
		t.Fatal(err)
	}
	cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
		CompleteRequest{JobID: st.ID, Result: payload}, nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("valid complete: status %d", cresp.StatusCode)
	}
	_, stored := fetch(t, ts, "/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(stored, payload) {
		t.Fatal("stored payload differs from the worker's valid result")
	}
	// The coordinator synthesized an unchecked receipt for the
	// receipt-less completion.
	code, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/receipt")
	if code != http.StatusOK {
		t.Fatalf("GET receipt: status %d", code)
	}
	rcpt, err := receipt.Parse(body)
	if err != nil || rcpt.Producer != "sloppy" || rcpt.VerdictLabel() != "unchecked" {
		t.Fatalf("synthesized receipt = %s (err %v), want unchecked from sloppy", body, err)
	}
}

// TestClusterDigestMismatchRequeuedByteIdentical is the acceptance
// scenario: a worker whose result bytes were corrupted in transit
// (receipt digest no longer matches) is rejected and the job requeued
// like a lease expiry; a healthy completion then lands, and the cached
// table is byte-identical to what a local run of the same identity
// produces.
func TestClusterDigestMismatchRequeuedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "test-rev"})
	wid := registerWorker(t, ts, "corrupted", 1)
	resp, st := postJob(t, ts, specJSON(22), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	lj := leaseJob(t, ts, wid)
	if lj == nil {
		t.Fatal("lease: no job")
	}
	identity := lj.Identity

	// The reference payload: what any in-process run of this identity
	// marshals to (the runner is deterministic in the identity).
	local, err := MarshalResult(fakeRun(identity))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _, err := receipt.Build(identity, local, nil, "corrupted")
	if err != nil {
		t.Fatal(err)
	}

	// In-transit corruption: the receipt was computed over the genuine
	// bytes, the payload that arrives differs by one byte (still valid
	// JSON so only the digest can catch it).
	corrupt := bytes.Replace(local, []byte(`"Cycles":12345`), []byte(`"Cycles":12346`), 1)
	if bytes.Equal(corrupt, local) {
		t.Fatalf("corruption did not apply to %s", local)
	}
	cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
		CompleteRequest{JobID: st.ID, Result: corrupt, Receipt: rcpt.CanonicalJSON()}, nil)
	if cresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt complete: status %d, want 422", cresp.StatusCode)
	}
	got := jobStatus(t, ts, st.ID)
	if got.State != StateQueued || got.Requeues != 1 {
		t.Fatalf("after mismatch: state=%s requeues=%d, want queued/1", got.State, got.Requeues)
	}
	m := parseExposition(t, scrape(t, ts))
	if m["coma_cluster_digest_mismatches_total"] != 1 || m["coma_cluster_requeues_total"] != 1 {
		t.Fatalf("mismatches/requeues = %v/%v, want 1/1",
			m["coma_cluster_digest_mismatches_total"], m["coma_cluster_requeues_total"])
	}

	// Healthy retry: genuine payload with its genuine receipt.
	if lj = leaseJob(t, ts, wid); lj == nil || lj.Attempt != 1 {
		t.Fatalf("re-lease = %+v, want attempt 1", lj)
	}
	cresp = workerPost(t, ts, "/v1/workers/"+wid+"/complete",
		CompleteRequest{JobID: st.ID, Result: local, Receipt: rcpt.CanonicalJSON()}, nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("healthy complete: status %d", cresp.StatusCode)
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("final state = %s, want done", got.State)
	}
	_, stored := fetch(t, ts, "/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(stored, local) {
		t.Fatalf("cached table differs from the local run:\n%s\n%s", stored, local)
	}
	// The worker's own receipt is the one served.
	_, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/receipt")
	if !bytes.Equal(bytes.TrimSpace(body), rcpt.CanonicalJSON()) {
		t.Fatalf("served receipt is not the worker's:\n%s\n%s", body, rcpt.CanonicalJSON())
	}
	m = parseExposition(t, scrape(t, ts))
	if m[`coma_receipts_total{verdict="unchecked"}`] != 1 {
		t.Fatalf("receipts{unchecked} = %v, want 1", m[`coma_receipts_total{verdict="unchecked"}`])
	}
}

// TestReceiptKeyEnforced: a coordinator holding a receipt key refuses
// completions without a receipt, with an unsigned receipt, and with a
// receipt signed under the wrong key; the properly signed one lands.
func TestReceiptKeyEnforced(t *testing.T) {
	key := []byte("fleet-secret")
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "test-rev",
		ReceiptKey: key, LeaseTTL: time.Minute, MaxRequeues: 10})
	wid := registerWorker(t, ts, "w", 1)
	resp, st := postJob(t, ts, specJSON(23), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	relese := func() config.RunIdentity {
		t.Helper()
		lj := leaseJob(t, ts, wid)
		if lj == nil {
			t.Fatal("lease: no job")
		}
		return lj.Identity
	}
	identity := relese()
	payload, err := MarshalResult(fakeRun(identity))
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _, err := receipt.Build(identity, payload, nil, "w")
	if err != nil {
		t.Fatal(err)
	}

	for name, raw := range map[string]json.RawMessage{
		"no receipt":       nil,
		"unsigned receipt": rcpt.CanonicalJSON(),
		"wrong key":        rcpt.Sign([]byte("other")).CanonicalJSON(),
	} {
		cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
			CompleteRequest{JobID: st.ID, Result: payload, Receipt: raw}, nil)
		if cresp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", name, cresp.StatusCode)
		}
		relese()
	}
	cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
		CompleteRequest{JobID: st.ID, Result: payload, Receipt: rcpt.Sign(key).CanonicalJSON()}, nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("signed complete: status %d", cresp.StatusCode)
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("final state = %s, want done", got.State)
	}
}

// TestStoreAuxRoundTrip covers the persistence path: aux artifacts
// written beside a result survive a store restart (read-through).
func TestStoreAuxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := config.RunIdentity{App: "uniform", Protocol: "ecp"}.Hash()
	if err := st.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAux(key, AuxReceipt, []byte(`{"schema":"coma-receipt/v1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAux(key, AuxTracePack, []byte("\x0c\x02")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAux(key, "evil-kind", []byte("x")); err == nil {
		t.Fatal("PutAux accepted an unknown kind")
	}

	fresh, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.GetAux(key, AuxReceipt); !ok || string(got) != `{"schema":"coma-receipt/v1"}` {
		t.Fatalf("receipt read-through = %q/%v", got, ok)
	}
	if got, ok := fresh.GetAux(key, AuxTracePack); !ok || string(got) != "\x0c\x02" {
		t.Fatalf("trace read-through = %q/%v", got, ok)
	}
	if _, ok := fresh.GetAux(key, "evil-kind"); ok {
		t.Fatal("GetAux served an unknown kind")
	}
	if _, ok := fresh.GetAux("nope", AuxReceipt); ok {
		t.Fatal("GetAux served an invalid key")
	}
}

// TestClusterReceiptReadyWhenWaitReturns: a ?wait=1 submission returns
// only once the job is done, and by then its receipt must be stored — a
// GET /receipt straight after the wait answers 200 with no retry. Jobs
// alternate between a worker-sent receipt and one the coordinator
// synthesizes, the two ways a cluster completion files its receipt.
func TestClusterReceiptReadyWhenWaitReturns(t *testing.T) {
	const jobs = 300
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "test-rev"})
	wid := registerWorker(t, ts, "w", 1)

	post := func(path string, body, out any) error {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, raw)
		}
		if out != nil {
			return json.Unmarshal(raw, out)
		}
		return nil
	}
	// The worker: long-poll for leases, complete each with the fake
	// runner's payload.
	ctx, cancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 1)
	go func() {
		for n := 0; ctx.Err() == nil; {
			var lr LeaseResponse
			if err := post("/v1/workers/"+wid+"/lease", LeaseRequest{WaitMS: 50}, &lr); err != nil {
				workerErr <- err
				return
			}
			if lj := lr.Job; lj != nil {
				payload, err := MarshalResult(fakeRun(lj.Identity))
				if err != nil {
					workerErr <- err
					return
				}
				req := CompleteRequest{JobID: lj.JobID, Result: payload}
				if n%2 == 0 {
					rcpt, _, err := receipt.Build(lj.Identity, payload, nil, "w")
					if err != nil {
						workerErr <- err
						return
					}
					req.Receipt = rcpt.CanonicalJSON()
				}
				n++
				if err := post("/v1/workers/"+wid+"/complete", req, nil); err != nil {
					workerErr <- err
					return
				}
			}
		}
		workerErr <- nil
	}()
	defer func() {
		cancel()
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	// Two clients in a closed loop, as comaperf's serve-cluster drives it.
	const clients = 2
	errs := make(chan error)
	for c := 0; c < clients; c++ {
		go func() {
			for i := c; i < jobs; i += clients {
				errs <- waitThenReceipt(ts.URL, specJSON(uint64(1000+i)))
			}
		}()
	}
	// Collect every outcome before failing: the worker must outlive the
	// last waiting submission, or the server's shutdown would block on it.
	var first error
	for i := 0; i < jobs; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		t.Fatal(first)
	}
}

// waitThenReceipt submits a spec with ?wait=1 and immediately fetches
// the finished job's receipt, once.
func waitThenReceipt(base, spec string) error {
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		return err
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		return fmt.Errorf("job %.12s: status %d state %s", st.ID, resp.StatusCode, st.State)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/receipt")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %.12s: GET /receipt right after ?wait=1 = %d: %s", st.ID, resp.StatusCode, body)
	}
	return nil
}
