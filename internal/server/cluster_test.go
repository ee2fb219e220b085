package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coma/internal/config"
)

// ---- raw-HTTP worker helpers (the typed client lives in a package
// that imports this one, so tests speak the wire format directly) ----

func workerPost(t *testing.T, ts *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, raw, err)
		}
	}
	return resp
}

func registerWorker(t *testing.T, ts *httptest.Server, name string, slots int) string {
	t.Helper()
	var reg RegisterResponse
	resp := workerPost(t, ts, "/v1/workers", RegisterRequest{Name: name, Slots: slots}, &reg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
	return reg.WorkerID
}

// leaseJob asks for one job without waiting; nil when the queue is
// empty.
func leaseJob(t *testing.T, ts *httptest.Server, workerID string) *LeasedJob {
	t.Helper()
	var lr LeaseResponse
	resp := workerPost(t, ts, "/v1/workers/"+workerID+"/lease", LeaseRequest{}, &lr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease as %s: status %d", workerID, resp.StatusCode)
	}
	return lr.Job
}

// leaseAll leases jobs one at a time until the queue is empty, as a
// worker with that many idle slots would.
func leaseAll(t *testing.T, ts *httptest.Server, workerID string) []LeasedJob {
	t.Helper()
	var out []LeasedJob
	for lj := leaseJob(t, ts, workerID); lj != nil; lj = leaseJob(t, ts, workerID) {
		out = append(out, *lj)
	}
	return out
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// parseExposition parses Prometheus text format into sample → value,
// failing the test on any malformed line — the scrape-parse check.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

func jobStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterLeaseExpiryRequeuesByteIdentical is the core
// fault-tolerance scenario end to end: a worker leases a job and goes
// silent; the lease expires; a second worker leases the requeued job
// (attempt counter bumped) and completes it; the stored payload is
// byte-for-byte what the fake worker computed — and the zombie's late
// duplicate completion is accepted as a no-op.
func TestClusterLeaseExpiryRequeuesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Cluster:  true,
		LeaseTTL: 150 * time.Millisecond,
		Revision: "test-rev",
	})

	victim := registerWorker(t, ts, "victim", 1)
	resp, st := postJob(t, ts, `{"app":"mp3d","nodes":2,"protocol":"ecp","seed":7,"progress":true}`, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}

	lj := leaseJob(t, ts, victim)
	if lj == nil || lj.JobID != st.ID {
		t.Fatalf("victim lease = %+v, want job %s", lj, st.ID)
	}
	if lj.Attempt != 0 {
		t.Fatalf("first lease Attempt = %d, want 0", lj.Attempt)
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateRunning || got.Worker != victim {
		t.Fatalf("after lease: state=%s worker=%q, want running on %s", got.State, got.Worker, victim)
	}

	// The victim goes silent past its liveness window; the next scrape's
	// lazy sweep declares it dead and requeues the job.
	time.Sleep(300 * time.Millisecond)
	m := parseExposition(t, scrape(t, ts))
	if m[`coma_cluster_workers{state="dead"}`] != 1 {
		t.Fatalf("dead workers = %v, want 1", m[`coma_cluster_workers{state="dead"}`])
	}
	if m["coma_cluster_lease_expiries_total"] != 1 || m["coma_cluster_requeues_total"] != 1 {
		t.Fatalf("expiries/requeues = %v/%v, want 1/1",
			m["coma_cluster_lease_expiries_total"], m["coma_cluster_requeues_total"])
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateQueued || got.Requeues != 1 {
		t.Fatalf("after expiry: state=%s requeues=%d, want queued/1", got.State, got.Requeues)
	}

	// A healthy replacement picks the job up and completes it.
	savior := registerWorker(t, ts, "savior", 1)
	lj = leaseJob(t, ts, savior)
	if lj == nil || lj.JobID != st.ID {
		t.Fatalf("savior lease = %+v, want requeued job", lj)
	}
	if lj.Attempt != 1 {
		t.Fatalf("requeued lease Attempt = %d, want 1", lj.Attempt)
	}
	if !lj.Progress {
		t.Fatal("lease lost the spec's progress flag")
	}
	payload, err := MarshalResult(fakeRun(lj.Identity))
	if err != nil {
		t.Fatal(err)
	}
	// Progress rides the heartbeat and, for the rest, the completion.
	if resp := workerPost(t, ts, "/v1/workers/"+savior+"/heartbeat", HeartbeatRequest{
		Progress: []ProgressEvent{{JobID: st.ID, Message: "checkpoint round 1 begin", SimCycles: 42}},
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: status %d", resp.StatusCode)
	}
	cresp := workerPost(t, ts, "/v1/workers/"+savior+"/complete", CompleteRequest{
		JobID: st.ID, Result: payload,
		Progress: []ProgressEvent{{JobID: st.ID, Message: "recovery point 1 committed", SimCycles: 77}},
	}, nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d", cresp.StatusCode)
	}

	final := jobStatus(t, ts, st.ID)
	if final.State != StateDone || final.Requeues != 1 {
		t.Fatalf("final state=%s requeues=%d, want done/1", final.State, final.Requeues)
	}
	res, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !bytes.Equal(stored, payload) {
		t.Fatalf("stored result differs from worker payload:\n got %s\nwant %s", stored, payload)
	}

	// The zombie finished too, eventually: its duplicate completion is a
	// benign no-op (first result won), not an error.
	zresp := workerPost(t, ts, "/v1/workers/"+victim+"/complete",
		CompleteRequest{JobID: st.ID, Result: payload}, nil)
	if zresp.StatusCode != http.StatusOK {
		t.Fatalf("zombie duplicate completion: status %d, want 200", zresp.StatusCode)
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("zombie completion flipped state to %s", got.State)
	}

	// The savior's forwarded progress lines are in the job's event
	// replay, the completion's before the done state event.
	ev, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(ev.Body)
	ev.Body.Close()
	beat := strings.Index(string(events), "checkpoint round 1 begin")
	last := strings.Index(string(events), "recovery point 1 committed")
	done := strings.Index(string(events), `"state":"done"`)
	if beat < 0 || last < 0 || done < 0 || beat > last || last > done {
		t.Fatalf("event replay wants heartbeat progress, completion progress, then done:\n%s", events)
	}

	// Healthz reports coordinator mode and one live worker.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if !h.Cluster || h.ClusterWorkers != 1 {
		t.Fatalf("healthz cluster=%v workers=%d, want true/1", h.Cluster, h.ClusterWorkers)
	}
}

// TestClusterDeadLetter drives a job past its requeue budget and
// checks it lands in the terminal dead_letter state — and that Drain
// does not hang on it (the inflight count must be released).
func TestClusterDeadLetter(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Cluster:     true,
		LeaseTTL:    100 * time.Millisecond,
		MaxRequeues: -1, // dead-letter on the first expiry
	})

	w := registerWorker(t, ts, "flaky", 1)
	_, st := postJob(t, ts, specJSON(11), false)
	if lj := leaseJob(t, ts, w); lj == nil {
		t.Fatal("lease: no job")
	}
	time.Sleep(250 * time.Millisecond)
	m := parseExposition(t, scrape(t, ts)) // lazy sweep

	got := jobStatus(t, ts, st.ID)
	if got.State != StateDeadLetter {
		t.Fatalf("state = %s, want dead_letter", got.State)
	}
	if got.Error == "" {
		t.Fatal("dead-lettered job carries no error message")
	}
	if m[`comad_jobs_total{state="dead_letter"}`] != 1 {
		t.Fatalf("dead_letter counter = %v, want 1", m[`comad_jobs_total{state="dead_letter"}`])
	}

	// A new worker must not be handed the corpse.
	w2 := registerWorker(t, ts, "fresh", 1)
	if lj := leaseJob(t, ts, w2); lj != nil {
		t.Fatalf("dead-lettered job leased again: %+v", lj)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain hung on dead-lettered job: %v", err)
	}
}

// TestClusterMetricsFamiliesAlwaysParse: the cluster families are
// emitted (as zeros) even on a single-process daemon, and the whole
// exposition parses on both.
func TestClusterMetricsFamiliesAlwaysParse(t *testing.T) {
	families := []string{
		`coma_cluster_workers{state="active"}`,
		`coma_cluster_workers{state="dead"}`,
		"coma_cluster_lease_expiries_total",
		"coma_cluster_requeues_total",
	}
	for _, cluster := range []bool{false, true} {
		_, ts := newTestServer(t, Options{Cluster: cluster})
		m := parseExposition(t, scrape(t, ts))
		for _, f := range families {
			if v, ok := m[f]; !ok || v != 0 {
				t.Errorf("cluster=%v: %s = %v,%v, want present and 0", cluster, f, v, ok)
			}
		}
	}
}

// TestClusterRevisionMismatchRefused: a worker built from different
// code must not join — its results would poison the cache.
func TestClusterRevisionMismatchRefused(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, Revision: "r1"})
	resp := workerPost(t, ts, "/v1/workers", RegisterRequest{Name: "stale", Slots: 1, Revision: "r0"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched revision: status %d, want 409", resp.StatusCode)
	}
	// Same revision (and workers that do not state one) are fine.
	registerWorker(t, ts, "anon", 1)
	var reg RegisterResponse
	if resp := workerPost(t, ts, "/v1/workers", RegisterRequest{Name: "ok", Slots: 2, Revision: "r1"}, &reg); resp.StatusCode != http.StatusOK {
		t.Fatalf("matching revision refused: %d", resp.StatusCode)
	}
	if reg.LeaseTTLMS != DefaultLeaseTTL.Milliseconds() {
		t.Fatalf("advertised lease TTL %dms, want %dms", reg.LeaseTTLMS, DefaultLeaseTTL.Milliseconds())
	}
}

// TestClusterDeregisterReturnsBacklog: a graceful goodbye requeues the
// worker's leases immediately, without burning a requeue attempt.
func TestClusterDeregisterReturnsBacklog(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, LeaseTTL: time.Minute})
	w := registerWorker(t, ts, "leaver", 2)
	_, st := postJob(t, ts, specJSON(21), false)
	if lj := leaseJob(t, ts, w); lj == nil {
		t.Fatal("lease failed")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/"+w, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	got := jobStatus(t, ts, st.ID)
	if got.State != StateQueued {
		t.Fatalf("after deregister: state %s, want queued", got.State)
	}
	if got.Requeues != 0 {
		t.Fatalf("voluntary return burned an attempt: requeues %d", got.Requeues)
	}
	// The departed worker's id is dead to the API now.
	if resp := workerPost(t, ts, "/v1/workers/"+w+"/heartbeat", HeartbeatRequest{}, nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("heartbeat after deregister: status %d, want 410", resp.StatusCode)
	}
}

// TestHealthzCountsMatchJobStates: the queued/running figures on
// /healthz equal the number of jobs in those states through a scripted
// mix of every transition that moves a job in or out of them — cancel,
// abandonment, queue-deadline expiry, lease-expiry requeue, zombie
// completion and deregistration.
func TestHealthzCountsMatchJobStates(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, LeaseTTL: 250 * time.Millisecond})
	health := func() Health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz") // runs the liveness sweep
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	check := func(step string, wantQueued, wantRunning int) {
		t.Helper()
		h := health()
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []JobStatus `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		byState := make(map[State]int)
		for _, j := range list.Jobs {
			byState[j.State]++
		}
		if h.Queued != byState[StateQueued] || h.Running != byState[StateRunning] {
			t.Fatalf("%s: healthz queued/running = %d/%d, but %d/%d jobs are in those states",
				step, h.Queued, h.Running, byState[StateQueued], byState[StateRunning])
		}
		if h.Queued != wantQueued || h.Running != wantRunning {
			t.Fatalf("%s: queued/running = %d/%d, want %d/%d", step, h.Queued, h.Running, wantQueued, wantRunning)
		}
	}
	del := func(path string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", path, resp.StatusCode)
		}
	}

	ids := make(map[uint64]string)
	for seed := uint64(1); seed <= 5; seed++ {
		_, st := postJob(t, ts, specJSON(seed), false)
		ids[seed] = st.ID
	}
	check("five submitted", 5, 0)

	del("/v1/jobs/" + ids[1])
	check("queued job cancelled", 4, 0)

	// Abandonment: the only waiter on a queued job hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1", strings.NewReader(specJSON(6)))
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitQueued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); health().Queued != n; {
			if time.Now().After(deadline) {
				t.Fatalf("queued never reached %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitQueued(5)
	cancel()
	<-waiterDone
	waitQueued(4)
	check("queued job abandoned", 4, 0)

	_, stale := postJob(t, ts, `{"app":"mp3d","nodes":2,"protocol":"ecp","seed":7,"deadline_ms":1}`, false)
	check("deadline job queued", 5, 0)
	time.Sleep(20 * time.Millisecond) // the deadline lapses while queued

	victim := registerWorker(t, ts, "victim", 2)
	for i := 0; i < 2; i++ {
		if lj := leaseJob(t, ts, victim); lj == nil {
			t.Fatalf("victim lease %d: no job", i)
		}
	}
	check("two leased", 3, 2)

	time.Sleep(600 * time.Millisecond) // the victim falls silent; its leases expire
	check("leases expired and requeued", 5, 0)

	// The zombie victim completes one of its requeued jobs after all.
	payload, err := MarshalResult(fakeRun(config.RunIdentity{Protocol: "ecp"}))
	if err != nil {
		t.Fatal(err)
	}
	if resp := workerPost(t, ts, "/v1/workers/"+victim+"/complete", CompleteRequest{JobID: ids[2], Result: payload}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("zombie completion: status %d", resp.StatusCode)
	}
	check("zombie completed a queued job", 4, 0)

	leaver := registerWorker(t, ts, "leaver", 8)
	if jobs := leaseAll(t, ts, leaver); len(jobs) != 3 {
		t.Fatalf("leaver leased %d jobs, want 3 (the deadline job must fail instead)", len(jobs))
	}
	if st := jobStatus(t, ts, stale.ID); st.State != StateFailed {
		t.Fatalf("deadline job is %s, want failed", st.State)
	}
	check("three leased, deadline job failed", 0, 3)

	del("/v1/workers/" + leaver)
	check("deregistered worker's leases returned", 3, 0)

	finisher := registerWorker(t, ts, "finisher", 4)
	jobs := leaseAll(t, ts, finisher)
	if len(jobs) != 3 {
		t.Fatalf("finisher leased %d jobs, want 3", len(jobs))
	}
	check("all leased again", 0, 3)
	for _, lj := range jobs {
		if resp := workerPost(t, ts, "/v1/workers/"+finisher+"/complete", CompleteRequest{JobID: lj.JobID, Result: payload}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("complete %.12s: status %d", lj.JobID, resp.StatusCode)
		}
	}
	check("all finished", 0, 0)
}

// TestClusterDeregisterEndsLongPoll: a lease long-poll in flight when
// its worker deregisters answers 410; it must not lease a job that
// arrives afterwards to a worker nothing tracks any more.
func TestClusterDeregisterEndsLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Options{Cluster: true, LeaseTTL: time.Minute})
	w := registerWorker(t, ts, "leaver", 1)
	polled := make(chan *http.Response, 1)
	go func() {
		payload, _ := json.Marshal(LeaseRequest{WaitMS: 5000})
		resp, err := http.Post(ts.URL+"/v1/workers/"+w+"/lease", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
		}
		polled <- resp
	}()
	time.Sleep(50 * time.Millisecond) // let the poll reach the handler
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/"+w, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, st := postJob(t, ts, specJSON(31), false)

	resp = <-polled
	if resp == nil {
		t.FailNow()
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("long-poll of a deregistered worker: status %d, want 410", resp.StatusCode)
	}
	if got := jobStatus(t, ts, st.ID); got.State != StateQueued {
		t.Fatalf("job submitted after the deregistration is %s, want queued", got.State)
	}
}
