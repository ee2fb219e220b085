package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/experiments"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
	"coma/internal/workload"
)

// campaignParams is a laptop-scale campaign with enough distinct runs
// (2 apps × (1 std + 2 ecp) = 6) to spread across a three-node cluster.
func campaignParams() experiments.Params {
	p := experiments.Bench()
	p.TargetInstructions = 300_000
	p.Freqs = []float64{200, 400}
	p.NodeSweep = []int{9}
	p.SweepHz = 400
	p.Apps = []workload.Spec{workload.Water(), workload.Mp3d()}
	return p
}

func renderFig3(t *testing.T, p experiments.Params) string {
	t.Helper()
	tb, err := experiments.NewSuite(p).Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	return tb.String()
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		return v
	}
	t.Fatalf("metric %s absent from scrape:\n%s", name, text)
	return 0
}

// TestClusterCampaignSurvivesWorkerKill is the end-to-end
// fault-tolerance contract of the cluster: a three-node cluster runs a
// real campaign, one node is SIGKILL-equivalently killed while it holds
// a leased job mid-simulation, the lease expires and requeues, the
// survivors absorb the work — and the rendered tables are byte-for-byte
// what a single-process run produces.
func TestClusterCampaignSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster integration test")
	}
	serial := renderFig3(t, campaignParams()) // single-process baseline

	const rev = "itest"
	srv, err := server.New(server.Options{
		Cluster:        true,
		Revision:       rev,
		LeaseTTL:       600 * time.Millisecond,
		HeartbeatEvery: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The victim's runner signals the test when it starts a job, then
	// blocks forever: its lease can only be freed by expiry.
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	defer close(block)
	victim := New(Config{
		Coordinator: ts.URL,
		Name:        "victim",
		Slots:       1,
		Revision:    rev,
		Runner: func(config.RunIdentity, server.RunOptions) (*stats.Run, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-block
			return nil, errors.New("victim never finishes")
		},
	})
	victimDone := make(chan error, 1)
	go func() { victimDone <- victim.Run(ctx) }()

	// The campaign fans out through the coordinator exactly as
	// comabench -remote does.
	cli := client.New(ts.URL)
	p := campaignParams()
	p.Remote = func(id config.RunIdentity) (*stats.Run, error) {
		run, _, err := cli.Run(context.Background(), server.SpecForIdentity(id))
		return run, err
	}
	type rendered struct {
		table string
		err   error
	}
	campaign := make(chan rendered, 1)
	go func() {
		tb, err := experiments.NewSuite(p).Fig3()
		if err != nil {
			campaign <- rendered{err: err}
			return
		}
		campaign <- rendered{table: tb.String()}
	}()

	select {
	case <-started:
	case <-time.After(60 * time.Second):
		t.Fatal("victim never started a job")
	}
	// The victim holds only the job it is running: the only way off the
	// dead victim is lease expiry.
	victim.Kill()

	// Two healthy replacements (real simulator) absorb the queue and
	// the requeued lease.
	agentDone := make(chan error, 2)
	for _, name := range []string{"healthy-1", "healthy-2"} {
		a := New(Config{Coordinator: ts.URL, Name: name, Slots: 1, Revision: rev})
		go func() { agentDone <- a.Run(ctx) }()
	}

	var got rendered
	select {
	case got = <-campaign:
	case <-time.After(5 * time.Minute):
		t.Fatal("campaign did not complete")
	}
	if got.err != nil {
		t.Fatalf("remote campaign: %v", got.err)
	}
	if got.table != serial {
		i := firstDiff(got.table, serial)
		t.Fatalf("cluster table diverges from single-process at byte %d:\n cluster: %q\n serial:  %q",
			i, excerpt(got.table, i), excerpt(serial, i))
	}

	// The fault was real: at least one lease expired and requeued, and
	// the victim is registered dead.
	text := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, text, "coma_cluster_lease_expiries_total"); v < 1 {
		t.Errorf("lease expiries = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "coma_cluster_requeues_total"); v < 1 {
		t.Errorf("requeues = %v, want >= 1", v)
	}
	if v := metricValue(t, text, `coma_cluster_workers{state="dead"}`); v != 1 {
		t.Errorf("dead workers = %v, want 1", v)
	}
	if v := metricValue(t, text, `coma_cluster_workers{state="active"}`); v != 2 {
		t.Errorf("active workers = %v, want 2", v)
	}

	// Healthy agents drain cleanly.
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-agentDone:
			if err != nil {
				t.Errorf("healthy agent: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("healthy agent did not drain")
		}
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func excerpt(s string, at int) string {
	lo, hi := at-40, at+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestAgentRegisterRevisionMismatchAborts: an agent built from the
// wrong code must fail fast, not retry forever.
func TestAgentRegisterRevisionMismatchAborts(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, Revision: "good"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a := New(Config{Coordinator: ts.URL, Name: "stale", Revision: "bad"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = a.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "refused registration") {
		t.Fatalf("Run = %v, want refused-registration error", err)
	}
	if ctx.Err() != nil {
		t.Fatal("agent retried a revision mismatch until the deadline instead of aborting")
	}
}

// TestAgentGracefulDrainCompletesInflight: cancelling Run lets the
// in-flight job finish and complete before deregistering.
func TestAgentGracefulDrainCompletesInflight(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute, HeartbeatEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	a := New(Config{
		Coordinator: ts.URL,
		Name:        "drainer",
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			entered <- struct{}{}
			<-release
			return &stats.Run{Cycles: 99, Protocol: id.Protocol, Nodes: id.Arch.Nodes}, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	cli := client.New(ts.URL)
	sub, err := cli.Submit(context.Background(), server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(20 * time.Second):
		t.Fatal("agent never started the job")
	}

	cancel() // drain begins while the job is mid-run
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("agent did not drain")
	}

	st, err := cli.Status(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("after drain: job %s, want done (in-flight work must complete, not abandon)", st.State)
	}
	var run stats.Run
	if err := json.Unmarshal(st.Result, &run); err != nil || run.Cycles != 99 {
		t.Fatalf("result = %s / %v, want the drained worker's run", st.Result, err)
	}
}

// TestAgentForwardsProgress: a real agent runs a progress job on the
// simulator, and the job's lifecycle lines reach its SSE replay ahead of
// the done state event. The heartbeat period outlasts the run, so every
// line rides the completion.
func TestAgentForwardsProgress(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute, HeartbeatEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a := New(Config{Coordinator: ts.URL, Name: "reporter"})
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() { agentDone <- a.Run(ctx) }()
	defer func() {
		cancel()
		<-agentDone
	}()

	cli := client.New(ts.URL)
	st, err := cli.Submit(context.Background(), server.JobSpec{
		App: "mp3d", Nodes: 4, Protocol: "ecp", CheckpointHz: 400, Scale: 0.002, Progress: true,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s: %s (%s), want done", server.ShortID(st.ID), st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	events := string(replay)
	done := strings.Index(events, `"state":"done"`)
	for _, line := range []string{"checkpoint round 1 begin", "recovery point 1 committed"} {
		if at := strings.Index(events, line); at < 0 || at > done {
			t.Fatalf("replay lacks %q before done:\n%s", line, events)
		}
	}
}

// TestClusterDrainCompletesQueuedWork: a coordinator that drains keeps
// leasing its queued jobs, so one single-slot agent finishes a backlog
// that was queued behind it when the drain began — and then leaves on
// its own once the coordinator reports it has drained.
func TestClusterDrainCompletesQueuedWork(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute, HeartbeatEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The first job holds the agent's only slot until the drain has begun.
	release := make(chan struct{})
	a := New(Config{
		Coordinator: ts.URL,
		Name:        "last-worker",
		Slots:       1,
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			<-release
			return &stats.Run{Cycles: 7, Protocol: id.Protocol, Nodes: id.Arch.Nodes}, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan error, 1)
	go func() { agentDone <- a.Run(ctx) }()

	cli := client.New(ts.URL)
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		st, err := cli.Submit(context.Background(), server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		if st, err := cli.Status(context.Background(), ids[0]); err == nil && st.State == server.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		drained <- srv.Drain(dctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if h, err := cli.Health(context.Background()); err == nil && h.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		st, err := cli.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Errorf("job %.12s: %s after drain, want done", id, st.State)
		}
	}
	select {
	case err := <-agentDone:
		if err != nil {
			t.Fatalf("agent Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not leave after the coordinator drained")
	}
}

// TestClusterQueuedJobWaitsForIdleSlot: a worker leases a job only when
// one of its slots is idle. A single-slot agent busy with its first job
// leaves the second queued at the coordinator, not leased to itself, and
// an agent that registers afterwards runs it.
func TestClusterQueuedJobWaitsForIdleSlot(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fake := func(id config.RunIdentity) *stats.Run {
		return &stats.Run{Cycles: 3, Protocol: id.Protocol, Nodes: id.Arch.Nodes}
	}

	release := make(chan struct{})
	busy := New(Config{
		Coordinator: ts.URL,
		Name:        "busy",
		Slots:       1,
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			<-release
			return fake(id), nil
		},
	})
	busyDone := make(chan error, 1)
	go func() { busyDone <- busy.Run(ctx) }()

	cli := client.New(ts.URL)
	submit := func(seed uint64) string {
		t.Helper()
		st, err := cli.Submit(context.Background(), server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	state := func(id string) server.JobStatus {
		t.Helper()
		st, err := cli.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := submit(1)
	for deadline := time.Now().Add(20 * time.Second); state(first).State != server.StateRunning; {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The busy agent's slot is taken: whatever it asks of the
	// coordinator now, the second job must stay in the queue.
	second := submit(2)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if st := state(second); st.State != server.StateQueued {
			t.Fatalf("second job is %s on %q while the only slot is busy, want queued", st.State, st.Worker)
		}
	}

	idle := New(Config{
		Coordinator: ts.URL,
		Name:        "idle",
		Slots:       1,
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			return fake(id), nil
		},
	})
	idleDone := make(chan error, 1)
	go func() { idleDone <- idle.Run(ctx) }()
	for deadline := time.Now().Add(20 * time.Second); state(second).State != server.StateDone; {
		if time.Now().After(deadline) {
			t.Fatalf("second job is %s, want done by the idle agent", state(second).State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	workers, _, err := cli.Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if want := map[string]int64{"busy": 0, "idle": 1}[w.Name]; w.Completed != want {
			t.Errorf("worker %s completed %d jobs, want %d", w.Name, w.Completed, want)
		}
	}

	close(release)
	cancel()
	for _, done := range []chan error{busyDone, idleDone} {
		if err := <-done; err != nil {
			t.Fatalf("agent Run: %v", err)
		}
	}
	if st := state(first); st.State != server.StateDone {
		t.Fatalf("first job: %s after the busy agent drained, want done", st.State)
	}
}

// TestAgentLeavesCoordinatorThatStopsAfterDrain: comad stops listening
// as soon as its drain finishes, so the agent that completes the last
// job must learn from that completion's answer that the coordinator has
// drained; it has no lease request in flight to learn it from.
func TestAgentLeavesCoordinatorThatStopsAfterDrain(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := make(chan struct{})
	a := New(Config{
		Coordinator: ts.URL,
		Name:        "last-worker",
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			<-release
			return &stats.Run{Cycles: 7, Protocol: id.Protocol, Nodes: id.Arch.Nodes}, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan error, 1)
	go func() { agentDone <- a.Run(ctx) }()

	cli := client.New(ts.URL)
	st, err := cli.Submit(context.Background(), server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		if st, err := cli.Status(context.Background(), st.ID); err == nil && st.State == server.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain, then stop serving at once, as comad serve does on SIGTERM.
	drained := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		err := srv.Drain(dctx)
		ts.Close()
		drained <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if h, err := cli.Health(context.Background()); err == nil && h.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case err := <-agentDone:
		if err != nil {
			t.Fatalf("agent Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent kept retrying a coordinator that drained and stopped")
	}
}

// TestAgentSlotsReregisterOnce: when the coordinator forgets a
// multi-slot worker, each slot's lease request gets a 410 at about the
// same time, and the agent rejoins as exactly one new worker, which
// then runs submitted work.
func TestAgentSlotsReregisterOnce(t *testing.T) {
	srv, err := server.New(server.Options{Cluster: true, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a := New(Config{
		Coordinator: ts.URL,
		Name:        "multi",
		Slots:       3,
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			return &stats.Run{Cycles: 5, Protocol: id.Protocol, Nodes: id.Arch.Nodes}, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() { agentDone <- a.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-agentDone; err != nil {
			t.Errorf("agent Run: %v", err)
		}
	}()

	cli := client.New(ts.URL)
	ids := func() []string {
		t.Helper()
		workers, _, err := cli.Workers(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, w := range workers {
			out = append(out, w.ID)
		}
		return out
	}
	for deadline := time.Now().Add(10 * time.Second); len(ids()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("agent never registered")
		}
	}
	// Forget the worker while its slots are long-polling.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/w1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(10 * time.Second); len(ids()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("agent never re-registered")
		}
	}
	// Every slot has seen its 410 well within a second (a long-poll
	// rechecks its worker every 250 ms); one registration must serve
	// them all.
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if got := ids(); len(got) != 1 || got[0] != "w2" {
			t.Fatalf("workers after the 410s = %v, want just [w2]", got)
		}
	}

	st, err := cli.Submit(context.Background(), server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: 9}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job after re-registration: %s, want done", st.State)
	}
}
