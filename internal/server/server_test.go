package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/stats"
)

// fakeRun is the result every fake runner returns; any JSON-stable
// payload works, the scheduler never looks inside.
func fakeRun(id config.RunIdentity) *stats.Run {
	return &stats.Run{Cycles: 12345, Protocol: id.Protocol, Nodes: id.Arch.Nodes}
}

// newTestServer boots a Server over httptest with the given runner.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// specJSON builds a minimal valid spec, seed-distinguished.
func specJSON(seed uint64) string {
	return fmt.Sprintf(`{"app":"mp3d","nodes":2,"protocol":"ecp","seed":%d}`, seed)
}

func postJob(t *testing.T, ts *httptest.Server, body string, wait bool) (*http.Response, JobStatus) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding job status from %q: %v", raw, err)
		}
	}
	return resp, st
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
		return fakeRun(id), nil
	}})
	// archWith is a spec with an explicit KSR1 arch with the given
	// fields overridden. A zero field is a divisor in Arch.Validate: the POST must get
	// a 400 naming it, not a dropped connection from an integer-divide
	// panic. A huge one must get a 400, not an unbounded allocation in
	// machine.New.
	archWith := func(set map[string]int) string {
		arch := map[string]any{}
		raw, _ := json.Marshal(config.KSR1(4))
		if err := json.Unmarshal(raw, &arch); err != nil {
			t.Fatal(err)
		}
		for field, v := range set {
			arch[field] = v
		}
		body, _ := json.Marshal(map[string]any{"app": "mp3d", "protocol": "ecp", "arch": arch})
		return string(body)
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed json", `{"app":`, "decoding job spec"},
		{"unknown field", `{"app":"mp3d","nodes":2,"protocol":"ecp","bogus":1}`, "bogus"},
		{"unknown app", `{"app":"doom","nodes":2,"protocol":"ecp"}`, "unknown app"},
		{"unknown protocol", `{"app":"mp3d","nodes":2,"protocol":"mesi"}`, "unknown protocol"},
		{"zero nodes", `{"app":"mp3d","nodes":0,"protocol":"ecp"}`, "nodes = 0"},
		{"standard with hz", `{"app":"mp3d","nodes":2,"protocol":"standard","hz":100}`, "requires the ecp protocol"},
		{"standard with failures", `{"app":"mp3d","nodes":2,"protocol":"standard","failures":[{"at":10,"node":0}]}`, "requires the ecp protocol"},
		{"ecp hz on 3 nodes", `{"app":"mp3d","protocol":"ecp","nodes":3,"hz":100}`, "need at least 4 nodes, have 3"},
		{"ecp failures on 3 nodes", `{"app":"mp3d","protocol":"ecp","nodes":3,"failures":[{"at":10,"node":1}]}`, "need at least 4 nodes, have 3"},
		{"negative scale", `{"app":"mp3d","nodes":2,"protocol":"ecp","scale":-1}`, "negative instruction budget"},
		{"negative hz", `{"app":"mp3d","nodes":2,"protocol":"ecp","hz":-5}`, "negative checkpoint frequency"},
		{"negative deadline", `{"app":"mp3d","nodes":2,"protocol":"ecp","deadline_ms":-1}`, "negative limit"},
		{"failure node out of range", `{"app":"mp3d","nodes":2,"protocol":"ecp","failures":[{"at":10,"node":7}]}`, "names node n7"},
		{"zero arch PageSize", archWith(map[string]int{"PageSize": 0}), "PageSize = 0"},
		{"zero arch CacheWays", archWith(map[string]int{"CacheWays": 0}), "CacheWays = 0"},
		{"zero arch AMWays", archWith(map[string]int{"AMWays": 0}), "AMWays = 0"},
		{"huge nodes", `{"app":"mp3d","nodes":1073741824,"protocol":"ecp"}`, "nodes = 1073741824, at most"},
		{"huge arch Nodes", archWith(map[string]int{"Nodes": 1 << 30}), "nodes = 1073741824, at most"},
		{"huge arch AMSize", archWith(map[string]int{"AMSize": 1 << 40}), "AM frames = 67108864 per node"},
		{"small arch PageSize", archWith(map[string]int{"PageSize": 128}), "AM frames = 65536 per node"},
		{"huge arch items", archWith(map[string]int{"AMSize": 1 << 30, "PageSize": 1 << 20}), "AM items = 8388608 per node"},
		{"huge arch CacheSize", archWith(map[string]int{"CacheSize": 1 << 40}), "cache lines = 17179869184 per node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, ts, tc.body, false)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			raw, _ := io.ReadAll(resp.Body)
			// Body already drained by postJob; re-fetch the error text.
			_ = raw
			resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp2.Body.Close()
			body, _ := io.ReadAll(resp2.Body)
			if !strings.Contains(string(body), tc.wantErr) {
				t.Fatalf("error body %q does not mention %q", body, tc.wantErr)
			}
		})
	}
}

func TestQueueFullGets429WithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1,
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			<-gate
			return fakeRun(id), nil
		},
	})
	defer close(gate)

	// Job 1 occupies the worker, job 2 fills the queue. The executor
	// dequeues job 1 asynchronously, so wait until it actually starts
	// running.
	resp1, st1 := postJob(t, ts, specJSON(1), false)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d, want 202", resp1.StatusCode)
	}
	waitForState(t, ts, st1.ID, StateRunning)
	if resp, _ := postJob(t, ts, specJSON(2), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d, want 202", resp.StatusCode)
	}

	resp3, _ := postJob(t, ts, specJSON(3), false)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
}

// waitForState polls GET /v1/jobs/{id} until the job reaches state st.
func waitForState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSSEEventOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Runner: func(id config.RunIdentity, opts RunOptions) (*stats.Run, error) {
			// Drive the progress bridge like the simulator would.
			opts.Observer.Emit(obs.Event{Kind: obs.KRoundBegin, Time: 100, B: 1})
			opts.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: 150}) // hot-path: dropped
			opts.Observer.Emit(obs.Event{Kind: obs.KCommitted, Time: 200, B: 1})
			return fakeRun(id), nil
		},
	})

	_, st := postJob(t, ts, `{"app":"mp3d","nodes":4,"protocol":"ecp","hz":100,"progress":true}`, true)
	if st.State != StateDone {
		t.Fatalf("job state %s, want done", st.State)
	}

	// The job is terminal, so the SSE handler replays the full log and
	// returns; read it all and check exact order and contiguous ids.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	body, _ := io.ReadAll(resp.Body)

	var events []JobEvent
	for _, frame := range strings.Split(strings.TrimSpace(string(body)), "\n\n") {
		for _, line := range strings.Split(frame, "\n") {
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad data line %q: %v", data, err)
				}
				events = append(events, ev)
			}
		}
	}

	want := []struct {
		typ   string
		state State
	}{
		{"state", StateQueued},
		{"state", StateRunning},
		{"progress", ""},
		{"progress", ""},
		{"state", StateDone},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(want))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i)
		}
		if ev.Type != want[i].typ || ev.State != want[i].state {
			t.Errorf("event %d = {%s %s}, want {%s %s}", i, ev.Type, ev.State, want[i].typ, want[i].state)
		}
	}
	if !strings.Contains(events[2].Message, "round 1 begin") {
		t.Errorf("progress message %q, want round begin", events[2].Message)
	}
	if events[2].SimCycles != 100 {
		t.Errorf("progress sim_cycles %d, want 100", events[2].SimCycles)
	}
}

func TestCancelQueuedJobAndRefuseRunning(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			<-gate
			return fakeRun(id), nil
		},
	})

	_, running := postJob(t, ts, specJSON(1), false)
	waitForState(t, ts, running.ID, StateRunning)
	_, queued := postJob(t, ts, specJSON(2), false)

	del := func(id string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del(queued.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d, want 200", resp.StatusCode)
	}
	waitForState(t, ts, queued.ID, StateCancelled)
	if resp := del(running.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel running: status %d, want 409", resp.StatusCode)
	}
	close(gate)
	waitForState(t, ts, running.ID, StateDone)
}

func TestQueueDeadlineFailsStaleJob(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			<-gate
			return fakeRun(id), nil
		},
	})

	_, first := postJob(t, ts, specJSON(1), false)
	waitForState(t, ts, first.ID, StateRunning)
	_, stale := postJob(t, ts, `{"app":"mp3d","nodes":2,"protocol":"ecp","seed":2,"deadline_ms":1}`, false)
	time.Sleep(20 * time.Millisecond) // let the deadline lapse while queued
	close(gate)

	st := waitForState(t, ts, stale.ID, StateFailed)
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("error %q, want deadline exceeded", st.Error)
	}
	waitForState(t, ts, first.ID, StateDone)
}

func TestResultEndpointServesStoredBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
		return fakeRun(id), nil
	}})
	_, st := postJob(t, ts, specJSON(7), true)
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d", resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	a, b := get(), get()
	if string(a) != string(b) {
		t.Fatalf("result bytes differ between reads")
	}
	if string(a) != string(st.Result) {
		t.Fatalf("raw result differs from inline result payload")
	}
	var run stats.Run
	if err := json.Unmarshal(a, &run); err != nil {
		t.Fatalf("result is not a stats.Run: %v", err)
	}
	if run.Cycles != 12345 {
		t.Fatalf("round-tripped Cycles = %d, want 12345", run.Cycles)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Options{Workers: 2, Runner: func(id config.RunIdentity, opts RunOptions) (*stats.Run, error) {
		runs.Add(1)
		// The bridge is installed even without progress streaming, so
		// these must surface as coma_obs_events_total below.
		opts.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: 10})
		opts.Observer.Emit(obs.Event{Kind: obs.KReadFill, Time: 20})
		opts.Observer.Emit(obs.Event{Kind: obs.KTxnBegin, Time: 30})
		return fakeRun(id), nil
	}})
	postJob(t, ts, specJSON(1), true)
	postJob(t, ts, specJSON(1), true) // identical: cache hit
	runtime.GC()                      // so the GC-derived runtime gauges below are non-zero

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"comad_jobs_submitted_total 2",
		`comad_cache_requests_total{outcome="miss"} 1`,
		`comad_cache_requests_total{outcome="hit"} 1`,
		`comad_jobs_total{state="done"} 1`,
		"comad_queue_wait_seconds_count 1",
		"comad_store_entries 1",
		`coma_obs_events_total{kind="read-fill"} 2`,
		`coma_obs_events_total{kind="txn-begin"} 1`,
		`coma_obs_events_total{kind="state"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The Go runtime series are read at scrape time, after the GC above.
	for _, name := range []string{"comad_go_heap_live_bytes", "comad_go_goroutines", "comad_go_gc_cycles_total", "comad_go_gc_pause_cpu_seconds_total", "comad_go_gc_cpu_seconds_total"} {
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("metrics missing the %s series", name)
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %s, want a live value", name, m[1])
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times, want 1", runs.Load())
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz = %+v, want ok/not draining", health)
	}
}

// TestLocalJobsStartInAdmissionOrder: in-process executors pop the one
// FIFO dispatch queue, so with a single worker a burst of concurrent
// submissions runs in exactly the order the scheduler admitted them.
func TestLocalJobsStartInAdmissionOrder(t *testing.T) {
	const jobs = 16
	gate := make(chan struct{})
	var mu sync.Mutex
	var started []string
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: jobs,
		Runner: func(id config.RunIdentity, _ RunOptions) (*stats.Run, error) {
			mu.Lock()
			started = append(started, id.Hash())
			mu.Unlock()
			<-gate
			return fakeRun(id), nil
		},
	})

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON(seed)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("seed %d: status %d, want 202", seed, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s.mu.Lock()
	admitted := append([]string(nil), s.order...)
	s.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	if len(started) != jobs {
		t.Fatalf("%d jobs started, want %d", len(started), jobs)
	}
	for i := range admitted {
		if started[i] != admitted[i] {
			t.Fatalf("start #%d is job %.12s, but admission #%d was %.12s (it started #%d)",
				i, started[i], i, admitted[i], slices.Index(started, admitted[i]))
		}
	}
}
