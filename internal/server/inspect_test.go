package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/inspect"
	"coma/internal/proto"
	"coma/internal/stats"
)

// fakeInspectSource is a Source with synthetic but self-consistent
// state, advanced by the paced runner one safe point at a time.
type fakeInspectSource struct {
	now    int64
	events int64
}

func (f *fakeInspectSource) InspectLine(item proto.ItemID) inspect.LineView {
	return inspect.LineView{
		Item: int64(item), Page: int64(item) / 8, Home: 2, Present: true,
		Owner: 3, Sharers: []int{1, 3},
		Copies: []inspect.CopyView{
			{Node: 3, State: proto.SharedCK1.String(), Partner: 1, Value: 7},
			{Node: 1, State: proto.SharedCK2.String(), Partner: 3, Value: 7},
		},
		RecoveryPairs: [][2]int{{1, 3}},
	}
}

func (f *fakeInspectSource) InspectNodes() []inspect.NodeView {
	nv := make([]inspect.NodeView, 4)
	for i := range nv {
		nv[i] = inspect.NodeView{Node: i, Alive: true, Frames: 8}
		nv[i].States.Add(proto.Shared)
	}
	return nv
}

func (f *fakeInspectSource) InspectQueues() inspect.QueuesView {
	return inspect.QueuesView{
		SimCycles: f.now,
		Request: inspect.SubnetView{Inflight: 5, BusyLinks: 2,
			NISendBusy: []int64{0, 4, 0, 0}, NIRecvBusy: []int64{0, 0, 0, 0}},
		Reply: inspect.SubnetView{Inflight: 3,
			NISendBusy: []int64{0, 0, 0, 0}, NIRecvBusy: []int64{0, 0, 0, 0}},
	}
}

func (f *fakeInspectSource) InspectSummary() inspect.SummaryView {
	return inspect.SummaryView{
		SimCycles: f.now, Events: f.events, Processes: 4,
		Nodes: 4, LiveNodes: 4,
	}
}

// pacedRunner is a fake Runner whose simulation advances one safe point
// per value received on step (the value is the sim-cycle increment), so
// tests control exactly when safe points — and thus samples and query
// service — happen. Closing step ends the run.
type pacedRunner struct {
	ctl  chan *inspect.Controller
	step chan int64
}

func newPacedRunner() *pacedRunner {
	return &pacedRunner{ctl: make(chan *inspect.Controller, 1), step: make(chan int64)}
}

func (p *pacedRunner) run(id config.RunIdentity, opts RunOptions) (*stats.Run, error) {
	src := &fakeInspectSource{}
	ctl := inspect.NewController(src, 100)
	defer ctl.Finish()
	if opts.Inspect != nil {
		opts.Inspect(ctl)
	}
	p.ctl <- ctl
	for d := range p.step {
		src.now += d
		src.events++
		ctl.AtSafePoint(src.now)
	}
	return fakeRun(id), nil
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantCode, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, raw, err)
		}
	}
}

// TestInspectViewsOverHTTP drives a paced fake run to a paused safe
// point and exercises all four inspect views plus the error paths.
func TestInspectViewsOverHTTP(t *testing.T) {
	p := newPacedRunner()
	_, ts := newTestServer(t, Options{Workers: 1, Runner: p.run})
	resp, st := postJob(t, ts, specJSON(1), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	ctl := <-p.ctl

	// Park the run at a safe point so every query below is answered
	// immediately and deterministically. A step may pass its safe point
	// before Pause raises attention, so steps of 100 go in until Pause
	// returns; the run is then parked after exactly k of them.
	paused := make(chan struct{})
	go func() { ctl.Pause(); close(paused) }()
	var k int64
	for parked := false; !parked; {
		select {
		case p.step <- 100:
			k++
		case <-paused:
			parked = true
		}
	}
	base := ts.URL + "/v1/jobs/" + st.ID + "/inspect"

	var sum inspect.SummaryView
	getJSON(t, base, http.StatusOK, &sum) // default view=summary
	if sum.SimCycles != 100*k || sum.Events != k || sum.Nodes != 4 || sum.Finished {
		t.Errorf("summary = %+v, want sim_cycles=%d events=%d nodes=4 finished=false", sum, 100*k, k)
	}

	var nodes []inspect.NodeView
	getJSON(t, base+"?view=node", http.StatusOK, &nodes)
	if len(nodes) != 4 || nodes[2].Frames != 8 || nodes[2].States.Total() != 1 {
		t.Errorf("nodes = %+v, want 4 nodes with 8 frames and 1 tallied state", nodes)
	}

	var queues inspect.QueuesView
	getJSON(t, base+"?view=queues", http.StatusOK, &queues)
	if queues.Request.Inflight != 5 || queues.Reply.Inflight != 3 || queues.Request.NISendBusy[1] != 4 {
		t.Errorf("queues = %+v, want request inflight 5, reply 3, node 1 send busy 4", queues)
	}

	var line inspect.LineView
	getJSON(t, base+"?view=line&item=12", http.StatusOK, &line)
	if line.Item != 12 || line.Home != 2 || len(line.RecoveryPairs) != 1 || line.RecoveryPairs[0] != [2]int{1, 3} {
		t.Errorf("line = %+v, want item 12 home 2 recovery pair [1 3]", line)
	}

	// addr= resolves through the job's item size.
	itemSize := config.KSR1(2).ItemSize
	getJSON(t, fmt.Sprintf("%s?view=line&addr=%d", base, 12*itemSize), http.StatusOK, &line)
	if line.Item != 12 {
		t.Errorf("line by addr: item = %d, want 12", line.Item)
	}
	getJSON(t, fmt.Sprintf("%s?view=line&addr=0x%x", base, 12*itemSize), http.StatusOK, &line)
	if line.Item != 12 {
		t.Errorf("line by hex addr: item = %d, want 12", line.Item)
	}

	getJSON(t, base+"?view=bogus", http.StatusBadRequest, nil)
	getJSON(t, base+"?view=line", http.StatusBadRequest, nil)
	getJSON(t, base+"?view=line&addr=nope", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/jobs/nope/inspect", http.StatusNotFound, nil)

	// Finish the run; inspection then reports the job is no longer live.
	ctl.Resume()
	close(p.step)
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"?wait=1", http.StatusOK, nil)
	getJSON(t, base, http.StatusConflict, nil)
}

// sseRead reads one "event: sample" SSE record and decodes its data.
func sseRead(t *testing.T, br *bufio.Reader) inspect.Sample {
	t.Helper()
	var smp inspect.Sample
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &smp); err != nil {
				t.Fatalf("decoding sample %q: %v", data, err)
			}
			return smp
		}
	}
}

// TestInspectStreamReplayThenFollow covers the stream contract: a
// client connecting mid-run immediately receives the latest snapshot,
// then each newer one as published; another client's disconnect does
// not perturb the run; the stream ends with the terminal sample.
func TestInspectStreamReplayThenFollow(t *testing.T) {
	p := newPacedRunner()
	_, ts := newTestServer(t, Options{Workers: 1, Runner: p.run})
	_, st := postJob(t, ts, specJSON(2), false)
	ctl := <-p.ctl

	// Advance three safe points (one sample each: sampleEvery=100,
	// increments of 100), then wait for the third sample to publish.
	for i := 0; i < 3; i++ {
		p.step <- 100
	}
	for ctl.Latest() == nil || ctl.Latest().Seq < 3 {
		time.Sleep(time.Millisecond)
	}

	streamURL := ts.URL + "/v1/jobs/" + st.ID + "/inspect/stream"
	resp, err := http.Get(streamURL)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// Replay: the latest sample arrives without any further progress.
	smp := sseRead(t, br)
	if smp.Seq != 3 || smp.Summary.SimCycles != 300 {
		t.Fatalf("replay sample = seq %d @%d, want seq 3 @300", smp.Seq, smp.Summary.SimCycles)
	}

	// A second client connects and immediately disconnects: the run and
	// the first stream must be unaffected.
	resp2, err := http.Get(streamURL)
	if err != nil {
		t.Fatalf("GET stream (second client): %v", err)
	}
	resp2.Body.Close()

	// Follow: two more safe points, two more samples, in order.
	for want := int64(4); want <= 5; want++ {
		p.step <- 100
		if smp = sseRead(t, br); smp.Seq != want {
			t.Fatalf("follow sample seq = %d, want %d", smp.Seq, want)
		}
	}

	// End of run: terminal sample, then EOF.
	close(p.step)
	smp = sseRead(t, br)
	if smp.Seq != 6 || !smp.Summary.Finished {
		t.Fatalf("terminal sample = %+v, want seq 6 finished", smp)
	}
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil || strings.TrimSpace(line) != "" {
			t.Fatalf("after terminal sample: line %q, err %v, want EOF", line, err)
		}
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(Inf)?$`)

// TestMetricsJobGauges scrapes /metrics mid-run and checks the per-job
// inspection gauges appear with the sampled values, and that the whole
// exposition parses line by line.
func TestMetricsJobGauges(t *testing.T) {
	p := newPacedRunner()
	_, ts := newTestServer(t, Options{Workers: 1, Runner: p.run})
	_, st := postJob(t, ts, specJSON(3), false)
	ctl := <-p.ctl
	p.step <- 100
	for ctl.Latest() == nil {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)

	job := ShortID(st.ID)
	for _, want := range []string{
		fmt.Sprintf("coma_job_sim_cycles{job=%q} 100", job),
		fmt.Sprintf("coma_job_events{job=%q} 1", job),
		fmt.Sprintf("coma_job_events_per_second{job=%q} ", job),
		fmt.Sprintf("coma_queue_depth{job=%q,subnet=\"request\"} 5", job),
		fmt.Sprintf("coma_queue_depth{job=%q,subnet=\"reply\"} 3", job),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable metrics line %q", line)
		}
	}

	close(p.step)
}

// TestInspectRealRunEndToEnd submits a real simulation, pauses it at
// its first safe point, queries every view over HTTP, resumes, and
// checks the stored result is byte-identical to the same identity run
// without any inspection traffic.
func TestInspectRealRunEndToEnd(t *testing.T) {
	ctlCh := make(chan *inspect.Controller, 1)
	runner := func(id config.RunIdentity, opts RunOptions) (*stats.Run, error) {
		inner := opts.Inspect
		opts.Inspect = func(ctl *inspect.Controller) {
			if inner != nil {
				inner(ctl)
			}
			ctlCh <- ctl
		}
		return SimRunner(id, opts)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Runner: runner})
	// A scaled-down workload: long enough to pause mid-run, short enough
	// for the race detector.
	spec4 := `{"app":"mp3d","nodes":2,"protocol":"ecp","seed":4,"scale":0.05}`
	_, st := postJob(t, ts, spec4, false)
	ctl := <-ctlCh
	ctl.Pause()

	base := ts.URL + "/v1/jobs/" + st.ID + "/inspect"
	var sum inspect.SummaryView
	getJSON(t, base, http.StatusOK, &sum)
	if sum.Nodes != 2 {
		t.Errorf("summary nodes = %d, want 2", sum.Nodes)
	}
	var nodes []inspect.NodeView
	getJSON(t, base+"?view=node", http.StatusOK, &nodes)
	if len(nodes) != 2 {
		t.Errorf("node view has %d entries, want 2", len(nodes))
	}
	getJSON(t, base+"?view=queues", http.StatusOK, new(inspect.QueuesView))
	getJSON(t, base+"?view=line&item=0", http.StatusOK, new(inspect.LineView))

	ctl.Resume()
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"?wait=1", http.StatusOK, nil)
	got, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	inspected, _ := io.ReadAll(got.Body)
	got.Body.Close()

	var spec JobSpec
	if err := json.Unmarshal([]byte(spec4), &spec); err != nil {
		t.Fatal(err)
	}
	identity, err := spec.Identity("")
	if err != nil {
		t.Fatal(err)
	}
	run, err := SimRunner(identity, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MarshalResult(run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(inspected), bytes.TrimSpace(plain)) {
		t.Error("inspected job's stored result differs from an uninspected run of the same identity")
	}
}
