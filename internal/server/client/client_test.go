package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/inspect"
	"coma/internal/obs"
	"coma/internal/server"
	"coma/internal/stats"
)

func testDaemon(t *testing.T, opts server.Options) (*server.Server, *Client) {
	t.Helper()
	s, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, New(ts.URL)
}

func spec(seed uint64) server.JobSpec {
	return server.JobSpec{App: "mp3d", Nodes: 2, Protocol: "ecp", Seed: seed}
}

func TestRunDecodesResult(t *testing.T) {
	_, c := testDaemon(t, server.Options{Workers: 1, Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
		return &stats.Run{Cycles: 777, Protocol: id.Protocol, Nodes: id.Arch.Nodes}, nil
	}})
	run, st, err := c.Run(context.Background(), spec(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Cycles != 777 || run.Nodes != 2 || run.Protocol != "ecp" {
		t.Fatalf("decoded run = %+v", run)
	}
	if st.Cache != "miss" {
		t.Fatalf("cache = %q, want miss", st.Cache)
	}
	if _, st2, err := c.Run(context.Background(), spec(1)); err != nil || st2.Cache != "hit" {
		t.Fatalf("repeat: cache=%q err=%v, want hit/nil", st2.Cache, err)
	}
}

func TestRunSurfacesFailure(t *testing.T) {
	_, c := testDaemon(t, server.Options{Workers: 1, Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
		return nil, context.DeadlineExceeded
	}})
	_, st, err := c.Run(context.Background(), spec(1))
	if err == nil {
		t.Fatal("Run on a failing job returned nil error")
	}
	if st.State != server.StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
}

func TestRunStreamingForwardsEvents(t *testing.T) {
	_, c := testDaemon(t, server.Options{Workers: 1, Runner: func(id config.RunIdentity, opts server.RunOptions) (*stats.Run, error) {
		opts.Observer.Emit(obs.Event{Kind: obs.KCommitted, Time: 42, B: 1})
		return &stats.Run{Cycles: 1}, nil
	}})
	var events []server.JobEvent
	run, st, err := c.RunStreaming(context.Background(), spec(1), func(ev server.JobEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatalf("RunStreaming: %v", err)
	}
	if run.Cycles != 1 || st.State != server.StateDone {
		t.Fatalf("run=%+v state=%s", run, st.State)
	}
	var sawProgress, sawDone bool
	for _, ev := range events {
		if ev.Type == "progress" && ev.SimCycles == 42 {
			sawProgress = true
		}
		if ev.Type == "state" && ev.State == server.StateDone {
			sawDone = true
		}
	}
	if !sawProgress || !sawDone {
		t.Fatalf("events %+v missing progress or done", events)
	}
}

func TestSubmitRetriesAfter429(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	_, c := testDaemon(t, server.Options{
		Workers: 1, QueueDepth: 1,
		Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
			runs.Add(1)
			<-gate
			return &stats.Run{Cycles: 9}, nil
		},
	})
	ctx := context.Background()

	// Fill the worker and the queue.
	first, err := c.Submit(ctx, spec(1), false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, first.ID, server.StateRunning)
	if _, err := c.Submit(ctx, spec(2), false); err != nil {
		t.Fatal(err)
	}

	// The third submission bounces off the full queue with Retry-After: 2
	// (one queued job per worker); release the gate shortly after so the
	// client's retry loop succeeds. The hint is a floor: the first retry
	// must not come before it, although the queue drains within
	// milliseconds of the release.
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := c.Run(ctx, spec(3))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Run after 429: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("Run retried within %v, under the 2s Retry-After floor", elapsed)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("runner executed %d times, want 3", got)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, c := testDaemon(t, server.Options{Workers: 3, Revision: "abc", Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
		return &stats.Run{}, nil
	}})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.Revision != "abc" {
		t.Fatalf("health = %+v", h)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty metrics exposition")
	}
}

func TestResultMatchesInlinePayload(t *testing.T) {
	_, c := testDaemon(t, server.Options{Workers: 1, Runner: func(id config.RunIdentity, _ server.RunOptions) (*stats.Run, error) {
		return &stats.Run{Cycles: 5}, nil
	}})
	_, st, err := c.Run(context.Background(), spec(4))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(st.Result) {
		t.Fatalf("raw result differs from inline payload")
	}
}

func waitState(t *testing.T, c *Client, id string, want server.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEveryMethodSurfacesAPIErrors: every request goes through the one
// exchange, so against a daemon that answers everything with 410 and a
// JSON error body, each exported method that makes a request returns an
// error for which IsGone holds and whose text carries the body's message.
func TestEveryMethodSurfacesAPIErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"error":"worker w9 is unknown"}`))
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()
	calls := map[string]func() error{
		"Submit": func() error { _, err := c.Submit(ctx, spec(1), false); return err },
		"Run":    func() error { _, _, err := c.Run(ctx, spec(1)); return err },
		"RunStreaming": func() error {
			_, _, err := c.RunStreaming(ctx, spec(1), nil)
			return err
		},
		"Status":  func() error { _, err := c.Status(ctx, "j"); return err },
		"Result":  func() error { _, err := c.Result(ctx, "j"); return err },
		"Receipt": func() error { _, err := c.Receipt(ctx, "j"); return err },
		"Trace":   func() error { _, err := c.Trace(ctx, "j"); return err },
		"Follow":  func() error { return c.Follow(ctx, "j", nil) },
		"Health":  func() error { _, err := c.Health(ctx); return err },
		"Metrics": func() error { _, err := c.Metrics(ctx); return err },
		"RegisterWorker": func() error {
			_, err := c.RegisterWorker(ctx, server.RegisterRequest{Name: "n"})
			return err
		},
		"LeaseJob": func() error {
			_, err := c.LeaseJob(ctx, "w9", server.LeaseRequest{})
			return err
		},
		"Heartbeat": func() error {
			_, err := c.Heartbeat(ctx, "w9", server.HeartbeatRequest{})
			return err
		},
		"CompleteJob": func() error {
			_, err := c.CompleteJob(ctx, "w9", server.CompleteRequest{JobID: "j"})
			return err
		},
		"DeregisterWorker": func() error { return c.DeregisterWorker(ctx, "w9") },
		"Workers":          func() error { _, _, err := c.Workers(ctx); return err },
		"Jobs":             func() error { _, err := c.Jobs(ctx); return err },
		"Inspect":          func() error { _, err := c.Inspect(ctx, "j", "summary", nil); return err },
		"InspectSummary":   func() error { _, err := c.InspectSummary(ctx, "j"); return err },
		"InspectStream": func() error {
			return c.InspectStream(ctx, "j", func(inspect.Sample) bool { return true })
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			err := call()
			if !IsGone(err) {
				t.Fatalf("err = %v, want a 410 API error", err)
			}
			if !strings.Contains(err.Error(), "worker w9 is unknown") {
				t.Fatalf("err = %q, want the body's message", err)
			}
		})
	}
}
