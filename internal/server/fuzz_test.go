package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/machine"
)

// FuzzJobSpec drives arbitrary POST /v1/jobs bodies through the
// handler's decode and canonicalisation path. Nothing on it may panic:
// a malformed or nonsensical spec is a 400, never a dropped connection.
// Any spec it accepts must have bounded geometry, must build a machine
// (so no accepted job fails at run time on a rule validation could have
// applied), and must name the same run after a marshal/unmarshal round
// trip, since the run hash is the daemon's cache key.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(specJSON(1)))
	f.Add([]byte(`{"app":"mp3d","nodes":4,"protocol":"ecp","hz":400,"scale":0.05,"seed":101}`))
	f.Add([]byte(`{"app":"mp3d","nodes":2,"protocol":"ecp","failures":[{"at":10,"node":1}]}`))
	f.Add([]byte(`{"app":"barnes","nodes":4,"protocol":"standard","instructions":1000,"modern":true}`))
	// Zero geometry must be a 400, not an integer divide in Arch.Validate.
	zeroPage, zeroCacheWays, zeroAMWays := config.KSR1(4), config.KSR1(4), config.KSR1(4)
	zeroPage.PageSize, zeroCacheWays.CacheWays, zeroAMWays.AMWays = 0, 0, 0
	// Huge geometry must be a 400, not an unbounded allocation in
	// machine.New.
	f.Add([]byte(`{"app":"mp3d","nodes":1073741824,"protocol":"ecp"}`))
	hugeNodes, hugeAM, hugeCache := config.KSR1(4), config.KSR1(4), config.KSR1(4)
	hugeNodes.Nodes, hugeAM.AMSize, hugeCache.CacheSize = 1<<30, 1<<40, 1<<40
	for _, arch := range []config.Arch{config.KSR1(16), config.DSVM(4), zeroPage, zeroCacheWays, zeroAMWays,
		hugeNodes, hugeAM, hugeCache} {
		spec, err := json.Marshal(SpecForIdentity(config.RunIdentity{
			Arch: arch, Protocol: "ecp", App: "water", Instructions: 5000,
			CheckpointInterval: 2048, Oracle: true,
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		id, err := spec.Identity("fuzz")
		if err != nil {
			return // rejected specs are out of scope
		}
		if a := id.Arch; a.Nodes > maxNodes || a.AMFrames() > maxAMFrames ||
			a.AMSize/a.ItemSize > maxAMItems || a.CacheLines() > maxCacheLines {
			t.Fatalf("accepted an unbounded machine: %s", id.CanonicalJSON())
		}
		if _, err := machine.FromIdentity(id, nil); err != nil {
			t.Fatalf("accepted a spec that does not build: %v\n%s", err, id.CanonicalJSON())
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding an accepted spec: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, raw)
		}
		id2, err := again.Identity("fuzz")
		if err != nil {
			t.Fatalf("re-encoded spec invalid: %v\n%s", err, raw)
		}
		if id.Hash() != id2.Hash() {
			t.Fatalf("round trip changed the run:\n in %s\nout %s", id.CanonicalJSON(), id2.CanonicalJSON())
		}
	})
}

// FuzzWorkerBodies sends arbitrary heartbeat, lease and complete bodies
// from a registered worker that holds a lease to a cluster coordinator.
// Worker bodies cross a trust boundary like job specs do: nothing on it
// may panic, every answer is one of the statuses the protocol defines,
// and the coordinator's queued and running counts on /healthz still
// match its jobs' states afterwards.
func FuzzWorkerBodies(f *testing.F) {
	const rev = "fuzz"
	spec := JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: 1}
	id, err := spec.Identity(rev)
	if err != nil {
		f.Fatal(err)
	}
	leased := id.Hash() // the first submission is the one leased
	payload, err := MarshalResult(fakeRun(id))
	if err != nil {
		f.Fatal(err)
	}
	body := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(body(HeartbeatRequest{Progress: []ProgressEvent{{JobID: leased, Message: "checkpoint round 1 begin"}}}),
		body(LeaseRequest{}), body(CompleteRequest{JobID: leased, Result: payload}))
	f.Add([]byte(`{}`), []byte(`{"wait_ms":-1}`), body(CompleteRequest{JobID: leased, Error: "boom"}))
	f.Add([]byte(`{"progress":[{"job_id":"nope"}]}`), []byte(`not json`),
		body(CompleteRequest{JobID: leased, Result: json.RawMessage(`{"bogus":1}`)}))
	f.Add([]byte(`[]`), []byte(`{"wait_ms":1e30}`), body(CompleteRequest{JobID: "unknown", Result: payload}))

	f.Fuzz(func(t *testing.T, heartbeat, lease, complete []byte) {
		s, err := New(Options{Cluster: true, Revision: rev, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			// The deadline bounds a lease body's long-poll; a second job
			// stays queued, so a well-formed lease answers at once.
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		for seed := uint64(1); seed <= 2; seed++ {
			sp := spec
			sp.Seed = seed
			if rec := do(http.MethodPost, "/v1/jobs", body(sp)); rec.Code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
			}
		}
		var reg RegisterResponse
		rec := do(http.MethodPost, "/v1/workers", []byte(`{"name":"fuzz","slots":1}`))
		if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
			t.Fatalf("register: %v", err)
		}
		var lr LeaseResponse
		rec = do(http.MethodPost, "/v1/workers/"+reg.WorkerID+"/lease", []byte(`{}`))
		if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil || lr.Job == nil || lr.Job.JobID != leased {
			t.Fatalf("setup lease = %s (%v), want job %.12s", rec.Body, err, leased)
		}

		for _, step := range []struct {
			name string
			body []byte
		}{{"heartbeat", heartbeat}, {"lease", lease}, {"complete", complete}} {
			rec := do(http.MethodPost, fmt.Sprintf("/v1/workers/%s/%s", reg.WorkerID, step.name), step.body)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("%s %q: status %d: %s", step.name, step.body, rec.Code, rec.Body)
			}
		}

		var health Health
		if err := json.Unmarshal(do(http.MethodGet, "/healthz", nil).Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []JobStatus `json:"jobs"`
		}
		if err := json.Unmarshal(do(http.MethodGet, "/v1/jobs", nil).Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		byState := make(map[State]int)
		for _, j := range list.Jobs {
			byState[j.State]++
		}
		if health.Queued != byState[StateQueued] || health.Running != byState[StateRunning] {
			t.Fatalf("healthz queued/running = %d/%d, but %d/%d jobs are in those states",
				health.Queued, health.Running, byState[StateQueued], byState[StateRunning])
		}
	})
}
