package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
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

// TestLocalJobStoresNoTrace: a local job files its result and receipt
// and nothing else, in memory and under -cache-dir; /trace derives the
// trace again and it attests.
func TestLocalJobStoresNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	st, _, _ := runTraced(t, ts, `{"app":"mp3d","nodes":4,"protocol":"ecp","seed":3,"scale":0.002,"hz":400}`)
	var kinds []string
	s.store.mu.Lock()
	for id := range s.store.mem {
		kinds = append(kinds, id.kind)
	}
	s.store.mu.Unlock()
	slices.Sort(kinds)
	if want := []string{KindResult, KindReceipt}; !slices.Equal(kinds, want) {
		t.Fatalf("in-memory entries %q, want %q", kinds, want)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if want := []string{st.ID + "." + KindResult, st.ID + "." + KindReceipt}; !slices.Equal(names, want) {
		t.Fatalf("cache dir holds %q, want %q", names, want)
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

// requireTrace500 requires GET /trace to answer a JSON 500 error, with
// no part of a trace in the body.
func requireTrace500(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/trace: body is not a JSON error: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body.Error == "" ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/trace: status %d, type %q, error %q; want a JSON 500",
			resp.StatusCode, resp.Header.Get("Content-Type"), body.Error)
	}
}

// withTraceDigest re-canonicalises a stored receipt with another
// trace_digest: a receipt no replay of its run can match.
func withTraceDigest(t *testing.T, stored []byte) []byte {
	t.Helper()
	rcpt, err := receipt.Parse(stored)
	if err != nil {
		t.Fatal(err)
	}
	rcpt.TraceDigest = receipt.Digest([]byte("another trace"))
	return append(rcpt.CanonicalJSON(), '\n')
}

// TestTraceReplayMismatchAnswers500: /trace serves a replay's trace only
// when the replay's receipt equals the stored one. A runner whose second
// run differs from its first, and a stored receipt naming another
// trace_digest, both get a JSON 500 with no trace bytes.
func TestTraceReplayMismatchAnswers500(t *testing.T) {
	t.Run("runner differs on replay", func(t *testing.T) {
		var runs atomic.Int64
		_, ts := newTestServer(t, Options{Workers: 1,
			Runner: func(id config.RunIdentity, o RunOptions) (*stats.Run, error) {
				o.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: runs.Add(1)})
				return fakeRun(id), nil
			}})
		resp, st := postJob(t, ts, specJSON(1), true)
		if resp.StatusCode != http.StatusOK || st.State != StateDone {
			t.Fatalf("submit: status %d state %s", resp.StatusCode, st.State)
		}
		requireTrace500(t, ts, st.ID)
	})
	t.Run("stored receipt names another trace", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1})
		st, _, _ := runTraced(t, ts, tracedSpec)
		stored, _ := s.store.Get(st.ID, KindReceipt)
		if err := s.store.Put(st.ID, KindReceipt, withTraceDigest(t, stored)); err != nil {
			t.Fatal(err)
		}
		requireTrace500(t, ts, st.ID)
	})
}

// TestCacheDirTraceRestart: with -cache-dir, a restarted daemon serves
// byte-identical JSONL for a cache hit by replaying it against the
// receipt file; a receipt file naming another trace answers a 500 JSON
// error.
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

	path := filepath.Join(dir, st.ID+"."+KindReceipt)
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withTraceDigest(t, stored), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, opts)
	if resp, st3 := postJob(t, ts3, tracedSpec, true); resp.StatusCode != http.StatusOK || st3.Cache != "hit" {
		t.Fatalf("third start: status %d cache %q, want a hit", resp.StatusCode, st3.Cache)
	}
	requireTrace500(t, ts3, st.ID)
}

// TestCacheDirIgnoresOldCodecTrace: trace logs that earlier daemons
// left in a -cache-dir (<hash>.trace.pack, <hash>.trace.v2.pack) are
// never read: a restarted daemon answers /trace for the cache hit with
// a replayed trace that attests against the stored receipt.
func TestCacheDirIgnoresOldCodecTrace(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, Revision: "r1"}
	_, ts1 := newTestServer(t, opts)
	st, _, want := runTraced(t, ts1, tracedSpec)
	ts1.Close()
	for _, suffix := range []string{".trace.pack", ".trace.v2.pack"} {
		if err := os.WriteFile(filepath.Join(dir, st.ID+suffix), []byte{0x7f}, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2 := newTestServer(t, opts)
	st2, _, got := runTraced(t, ts2, tracedSpec)
	if st2.Cache != "hit" {
		t.Fatalf("restart: cache %q, want a hit", st2.Cache)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace served after restart differs from the one served before")
	}
}

// TestStoreAuxBytesGauge: comad_store_aux_bytes shows the memory the
// stored receipts hold; a cache hit stores nothing new.
func TestStoreAuxBytesGauge(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	var want int
	for _, spec := range []string{tracedSpec, strings.Replace(tracedSpec, `"seed":11`, `"seed":12`, 1), tracedSpec} {
		st, _, _ := runTraced(t, ts, spec)
		if st.Cache != "hit" {
			rcpt, _ := s.store.Get(st.ID, KindReceipt)
			want += len(rcpt)
		}
		m := parseExposition(t, scrape(t, ts))
		if got := m[`comad_store_aux_bytes{kind="receipt"}`]; got != float64(want) {
			t.Fatalf("after job %.12s (%s): aux bytes receipt %v, want %d", st.ID, st.Cache, got, want)
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

// TestStoreAuxRoundTrip covers the one entry path for every kind:
// results and receipts written through survive a store restart
// (read-through), an unknown kind (a trace log among them) or invalid
// key is refused, Len counts results only, and Bytes stays exact when
// an entry is replaced.
func TestStoreAuxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := config.RunIdentity{App: "uniform", Protocol: "ecp"}.Hash()
	entries := map[string]string{
		KindResult:  `{"x":1}`,
		KindReceipt: `{"schema":"coma-receipt/v1"}`,
	}
	for kind, payload := range entries {
		if err := st.Put(key, kind, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []string{"evil-kind", "trace.v2.pack"} {
		if err := st.Put(key, kind, []byte("x")); err == nil {
			t.Fatalf("Put accepted unknown kind %q", kind)
		}
		if _, ok := st.Get(key, kind); ok {
			t.Fatalf("Put stored unknown kind %q in memory", kind)
		}
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("Len = %d with one result and one other entry, want 1", n)
	}
	if err := st.Put(key, KindReceipt, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got := st.Bytes(KindReceipt); got != 2 {
		t.Fatalf("Bytes(receipt) = %d after replacing the receipt with 2 bytes, want 2", got)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("Len = %d after replacing a receipt, want 1", n)
	}
	entries[KindReceipt] = `{}`

	fresh, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.Len(); n != 0 {
		t.Fatalf("fresh store Len = %d before any read, want 0", n)
	}
	for kind, want := range entries {
		if got, ok := fresh.Get(key, kind); !ok || string(got) != want {
			t.Fatalf("%s read-through = %q/%v, want %q", kind, got, ok, want)
		}
		if got := fresh.Bytes(kind); got != int64(len(want)) {
			t.Fatalf("Bytes(%s) = %d after read-through, want %d", kind, got, len(want))
		}
	}
	if n := fresh.Len(); n != 1 {
		t.Fatalf("Len = %d after reading every kind back, want 1", n)
	}
	if _, ok := fresh.Get(key, "evil-kind"); ok {
		t.Fatal("Get served an unknown kind")
	}
	if _, ok := fresh.Get("nope", KindReceipt); ok {
		t.Fatal("Get served an invalid key")
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

// TestTraceReplayTakesAnExecutorSlot: a replay runs in one of the
// Options.Workers executor slots. While a job holds the only slot,
// /trace answers 429 with Retry-After; while a replay holds it, a new
// job waits queued and runs once the replay hands the slot back.
func TestTraceReplayTakesAnExecutorSlot(t *testing.T) {
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1,
		Runner: func(id config.RunIdentity, o RunOptions) (*stats.Run, error) {
			if hold.Load() {
				entered <- struct{}{}
				<-release
			}
			o.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: int64(id.Seed)})
			return fakeRun(id), nil
		}})
	resp, done := postJob(t, ts, specJSON(1), true)
	if resp.StatusCode != http.StatusOK || done.State != StateDone {
		t.Fatalf("submit: status %d state %s", resp.StatusCode, done.State)
	}
	_, body := fetch(t, ts, "/v1/jobs/"+done.ID+"/receipt")
	rcpt, err := receipt.Parse(body)
	if err != nil {
		t.Fatal(err)
	}

	// A running job holds the slot.
	hold.Store(true)
	_, running := postJob(t, ts, specJSON(2), false)
	<-entered
	hold.Store(false)
	r, err := http.Get(ts.URL + "/v1/jobs/" + done.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests || r.Header.Get("Retry-After") == "" {
		t.Fatalf("/trace with every slot busy: status %d, Retry-After %q; want 429 with a hint",
			r.StatusCode, r.Header.Get("Retry-After"))
	}
	release <- struct{}{}
	if resp, st := postJob(t, ts, specJSON(2), true); resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job %.12s: status %d state %s", running.ID, resp.StatusCode, st.State)
	}

	// A replay holds the slot.
	hold.Store(true)
	type answer struct {
		code int
		body []byte
	}
	traced := make(chan answer, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + done.ID + "/trace")
		if err != nil {
			traced <- answer{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		traced <- answer{resp.StatusCode, body}
	}()
	<-entered
	hold.Store(false)
	_, queued := postJob(t, ts, specJSON(3), false)
	if st := jobStatus(t, ts, queued.ID); st.State != StateQueued {
		t.Fatalf("job submitted during a replay: state %s, want queued", st.State)
	}
	release <- struct{}{}
	a := <-traced
	if a.code != http.StatusOK {
		t.Fatalf("/trace: status %d (%s)", a.code, a.body)
	}
	if err := rcpt.Attest(receipt.Artifacts{Trace: a.body}, nil); err != nil {
		t.Fatalf("replayed trace fails attestation: %v", err)
	}
	if resp, st := postJob(t, ts, specJSON(3), true); resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job %.12s after the replay: status %d state %s", queued.ID, resp.StatusCode, st.State)
	}
}

// TestClusterJobTraceIs404: a coordinator runs no simulation, so a
// cluster job's /trace answers 404 and replays nothing, whatever
// producer its worker's receipt names.
func TestClusterJobTraceIs404(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "test-rev",
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			runs.Add(1)
			return fakeRun(id), nil
		}})
	wid := registerWorker(t, ts, "w", 1)
	for seed, producer := range map[uint64]string{31: "w", 32: receipt.ProducerLocal} {
		_, st := postJob(t, ts, specJSON(seed), false)
		lj := leaseJob(t, ts, wid)
		if lj == nil {
			t.Fatal("lease: no job")
		}
		payload, err := MarshalResult(fakeRun(lj.Identity))
		if err != nil {
			t.Fatal(err)
		}
		rcpt, _, err := receipt.Build(lj.Identity, payload, []obs.Event{{Kind: obs.KReadFill}}, producer)
		if err != nil {
			t.Fatal(err)
		}
		cresp := workerPost(t, ts, "/v1/workers/"+wid+"/complete",
			CompleteRequest{JobID: st.ID, Result: payload, Receipt: rcpt.CanonicalJSON()}, nil)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("complete: status %d", cresp.StatusCode)
		}
		if code, body := fetch(t, ts, "/v1/jobs/"+st.ID+"/trace"); code != http.StatusNotFound {
			t.Fatalf("producer %q: /trace status %d (%s), want 404", producer, code, body)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("the coordinator ran %d simulations, want 0", n)
	}
}

// TestTraceReplaysStayWithinWorkers: replays and jobs requested at once
// never run more than Options.Workers simulations together; every
// /trace answers a trace or a 429, and every job finishes.
func TestTraceReplaysStayWithinWorkers(t *testing.T) {
	const workers = 2
	var running, most atomic.Int64
	_, ts := newTestServer(t, Options{Workers: workers,
		Runner: func(id config.RunIdentity, o RunOptions) (*stats.Run, error) {
			n := running.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			time.Sleep(time.Millisecond)
			o.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: int64(id.Seed)})
			running.Add(-1)
			return fakeRun(id), nil
		}})
	_, done := postJob(t, ts, specJSON(1), true)
	errs := make(chan error)
	for i := 0; i < 12; i++ {
		go func() {
			if i%3 == 0 {
				errs <- waitThenReceipt(ts.URL, specJSON(uint64(100+i)))
				return
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + done.ID + "/trace")
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				err = fmt.Errorf("/trace: status %d", resp.StatusCode)
			}
			errs <- err
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if m := most.Load(); m > workers {
		t.Fatalf("%d simulations ran at once, want at most %d", m, workers)
	}
}
