package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coma/internal/cluster"
	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/obs/txnview"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
)

// op is one request of a serve workload.
type op struct {
	cold     bool
	hot      int // index into the hot set, for hot requests
	spec     server.JobSpec
	identity config.RunIdentity
	id       string // job id: the identity's content address
}

func newOp(spec server.JobSpec, cold bool, hot int) (op, error) {
	id, err := spec.Identity(revision)
	if err != nil {
		return op{}, err
	}
	return op{cold: cold, hot: hot, spec: spec, identity: id, id: id.Hash()}, nil
}

// serveInputs are one run's requests, all derived from -seed.
type serveInputs struct {
	hot  []op // completed during set-up, then requested hot
	warm []op // cold jobs run during set-up
	ops  []op // the timed closed loop, in order
}

func makeServeInputs(cfg serveConfig, seed uint64) (*serveInputs, error) {
	in := &serveInputs{}
	job := func(stream, i int) server.JobSpec {
		spec := cfg.cold
		spec.Seed = deriveSeed(seed, stream, i)
		return spec
	}
	for k := 0; k < cfg.hotSet; k++ {
		o, err := newOp(job(streamHot, k), false, k)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, o)
	}
	for k := 0; k < cfg.warmups; k++ {
		o, err := newOp(job(streamWarm, k), true, 0)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, o)
	}
	// Exactly requests/coldEvery cold jobs, placed by a seeded shuffle.
	rng := rand.New(rand.NewPCG(seed, streamOps))
	cold := make([]bool, cfg.requests)
	for _, i := range rng.Perm(cfg.requests)[:cfg.requests/cfg.coldEvery] {
		cold[i] = true
	}
	nCold := 0
	for i := range cold {
		var o op
		var err error
		if cold[i] {
			o, err = newOp(job(streamCold, nCold), true, 0)
			nCold++
		} else {
			k := rng.IntN(len(in.hot))
			o = in.hot[k]
		}
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// opResult is what a client saw for one request.
type opResult struct {
	err          error
	lat          float64 // ms, submit through receipt for cold jobs
	receiptMS    float64 // ms spent on GET /receipt
	receiptRaces int     // receipt GETs that found the done job without one
	payload      []byte
	rcpt         []byte
}

// doOp issues one request as a blocking caller does: POST ?wait=1,
// then, for a cold job, GET its receipt.
func doOp(ctx context.Context, cli *client.Client, o op, spans *spanLog) opResult {
	root := spans.reserve(o.id)
	t0 := time.Now()
	st, err := cli.Submit(ctx, o.spec, true)
	t1 := time.Now()
	var out opResult
	want := "hit"
	if o.cold {
		want = "miss"
	}
	switch {
	case err != nil:
		out.err = err
	case st.State != server.StateDone:
		out.err = fmt.Errorf("job %s: %s", st.State, st.Error)
	case st.ID != o.id:
		out.err = fmt.Errorf("job id %.12s, want %.12s", st.ID, o.id)
	case st.Cache != want:
		out.err = fmt.Errorf("cache %q, want %q", st.Cache, want)
	}
	out.payload = st.Result
	if out.err == nil && o.cold {
		out.rcpt, out.receiptRaces, out.err = getReceipt(ctx, cli, o.id)
	}
	t2 := time.Now()
	out.lat, out.receiptMS = ms(t2.Sub(t0)), ms(t2.Sub(t1))
	if out.err != nil {
		out.lat = inf
	}
	spans.finish(root, "job", o.id, t0, t2)
	spans.add(root, "submit", o.id, t0, t1)
	if o.cold {
		spans.add(root, "receipt-get", o.id, t1, t2)
	}
	return out
}

// getReceipt fetches a done job's receipt. A cluster coordinator
// publishes a completed job before it stores the job's receipt (see
// handleWorkerComplete in internal/server/cluster.go), so a GET right
// after ?wait=1 can find none. Such 404s are retried for up to 100 ms
// and counted; a receipt that stays absent fails the request.
func getReceipt(ctx context.Context, cli *client.Client, id string) ([]byte, int, error) {
	for races := 0; ; races++ {
		rc, err := cli.Receipt(ctx, id)
		if client.StatusCode(err) != http.StatusNotFound || races == 100 {
			return rc, races, err
		}
		select {
		case <-ctx.Done():
			return nil, races, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// closedLoop runs ops with a fixed number of clients, each sending its
// next request only when the previous one has completed.
func closedLoop(ctx context.Context, base string, ops []op, spans *spanLog) []opResult {
	res := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := client.NewSeeded(base, uint64(c+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				res[i] = doOp(ctx, cli, ops[i], spans)
			}
		}()
	}
	wg.Wait()
	return res
}

// simTimes wraps a server.Runner to time each simulation it runs, keyed
// by job id, and records it as a "sim" span under the job's root span.
type simTimes struct {
	spans *spanLog
	mu    sync.Mutex
	byJob map[string]float64 // ms
}

func (s *simTimes) wrap(inner server.Runner) server.Runner {
	return func(id config.RunIdentity, opts server.RunOptions) (*stats.Run, error) {
		t0 := time.Now()
		res, err := inner(id, opts)
		t1 := time.Now()
		job := id.Hash()
		s.mu.Lock()
		s.byJob[job] = ms(t1.Sub(t0))
		s.mu.Unlock()
		s.spans.add(s.spans.rootOf(job), "sim", job, t0, t1)
		return res, err
	}
}

func (s *simTimes) get(job string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byJob[job]
}

// serveEnv is one round's server (and agents) on a loopback listener.
type serveEnv struct {
	base        string
	hs          *http.Server
	served      chan error
	stopAgents  context.CancelFunc
	agentsGone  sync.WaitGroup
	agentErrors chan error
}

func startServe(ctx context.Context, cfg serveConfig, runner server.Runner) (*serveEnv, error) {
	opts := server.Options{Workers: workers, Revision: revision, Cluster: cfg.cluster}
	if !cfg.cluster {
		opts.Runner = runner
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		base:        "http://" + ln.Addr().String(),
		hs:          &http.Server{Handler: srv.Handler()},
		served:      make(chan error, 1),
		stopAgents:  func() {},
		agentErrors: make(chan error, workers),
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	if !cfg.cluster {
		return env, nil
	}
	actx, cancel := context.WithCancel(context.Background())
	env.stopAgents = cancel
	for i := 0; i < workers; i++ {
		a := cluster.New(cluster.Config{
			Coordinator: env.base, Name: fmt.Sprintf("agent%d", i),
			Slots: 1, Revision: revision, Runner: runner,
		})
		env.agentsGone.Add(1)
		go func() {
			defer env.agentsGone.Done()
			if err := a.Run(actx); err != nil {
				env.agentErrors <- err
			}
		}()
	}
	// Set-up ends when the coordinator lists every agent as active.
	cli := client.New(env.base)
	for {
		ws, _, err := cli.Workers(ctx)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("listing workers: %w", err)
		}
		active := 0
		for _, w := range ws {
			if w.State == "active" {
				active++
			}
		}
		if active == workers {
			return env, nil
		}
		select {
		case <-ctx.Done():
			env.close()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the agents (they deregister while the server still
// listens), then the HTTP server, and waits for all of them to end.
func (e *serveEnv) close() error {
	e.stopAgents()
	e.agentsGone.Wait()
	close(e.agentErrors)
	var err error
	for aerr := range e.agentErrors {
		err = errors.Join(err, aerr)
	}
	e.hs.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// serveRound sets up a fresh server (and agents), runs the fixed closed
// loop, and checks every answer.
func (b *bench) serveRound(w workload, traced bool) round {
	cfg := w.srv[b.size()]
	var r round
	// A round takes about 1.5 s; a stuck request fails the round long
	// before the process watchdog in run fires.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var runner server.Runner
	var times *simTimes
	var spans *spanLog
	if traced {
		spans = b.spans
		times = &simTimes{spans: spans, byJob: make(map[string]float64)}
		runner = times.wrap(server.SimRunner)
	}

	t0 := time.Now()
	env, err := startServe(ctx, cfg, runner)
	if err != nil {
		b.attempted++
		b.fail("starting server: %v", err)
		return r
	}
	defer func() {
		if err := env.close(); err != nil {
			b.fail("stopping server: %v", err)
		}
	}()
	in := b.serve
	// Set-up computes the hot set and the warm-up jobs: all misses.
	setupOps := append(append([]op(nil), in.hot...), in.warm...)
	for i := range setupOps {
		setupOps[i].cold = true
	}
	warm := closedLoop(ctx, env.base, setupOps, spans)
	hotPayloads := make([][]byte, len(in.hot))
	for i, res := range warm {
		b.attempted++
		if res.err != nil {
			b.fail("set-up job %.12s: %v", setupOps[i].id, res.err)
			continue
		}
		if i < len(in.hot) {
			hotPayloads[i] = res.payload
		}
	}
	r.setup = time.Since(t0)

	smp := startSampler()
	var prof *profiler
	if traced {
		if prof, err = startProfile(); err != nil {
			b.fail("profile: %v", err)
		}
	}
	u := readUsage()
	results := closedLoop(ctx, env.base, in.ops, spans)
	r.use = since(u)
	if prof != nil {
		r.profiles = append(r.profiles, prof.stop())
	}
	r.peaks = smp.stop()
	r.heap = max(r.peaks.liveHeap, liveHeapNow())

	for i, o := range in.ops {
		res := results[i]
		b.attempted++
		if res.err == nil {
			res.err = b.checkServed(o, res, hotPayloads)
		}
		if res.err != nil {
			b.fail("request %d (%.12s): %v", i, o.id, res.err)
			if o.cold {
				r.coldLat = append(r.coldLat, inf)
			} else {
				r.hotLat = append(r.hotLat, inf)
			}
			continue
		}
		r.jobs++
		if !o.cold {
			r.hotLat = append(r.hotLat, res.lat)
			continue
		}
		r.coldLat = append(r.coldLat, res.lat)
		r.receiptLat = append(r.receiptLat, res.receiptMS)
		r.receiptRaces += res.receiptRaces
		if run, err := receipt.ParseResult(res.payload); err == nil {
			r.counts.add(run)
		}
		if times != nil {
			sim := times.get(o.id)
			r.simMS = append(r.simMS, sim)
			r.overhead = append(r.overhead, res.lat-sim)
		}
	}
	if b.roundNo == 0 {
		b.deepCheck(ctx, env.base, cfg, in.ops, results)
	}
	if r.scrape, err = scrape(ctx, env.base); err != nil {
		b.attempted++
		b.fail("scraping /metrics: %v", err)
	} else if n := r.scrape["coma_cluster_digest_mismatches_total"]; n != 0 {
		b.attempted++
		b.fail("%v cluster completions failed their digest check", n)
	}
	return r
}

// checkServed validates one answered request: hot answers must be the
// bytes set-up stored, cold answers must carry a canonical receipt with
// an ok verdict that attests the payload, and every payload must equal
// the same job's payload in earlier rounds.
func (b *bench) checkServed(o op, res opResult, hotPayloads [][]byte) error {
	if prev, ok := b.payloads[o.id]; ok && !bytes.Equal(prev, res.payload) {
		return errors.New("payload differs from round 1")
	}
	b.payloads[o.id] = res.payload
	if !o.cold {
		if !bytes.Equal(res.payload, hotPayloads[o.hot]) {
			return errors.New("hot payload differs from the stored result")
		}
		return nil
	}
	rc, err := receipt.Parse(res.rcpt)
	if err != nil {
		return err
	}
	if rc.RunHash != o.id {
		return fmt.Errorf("receipt names run %.12s", rc.RunHash)
	}
	if v := rc.VerdictLabel(); v != string(receipt.VerdictOK) {
		return fmt.Errorf("receipt verdict %q", v)
	}
	return rc.Attest(receipt.Artifacts{Result: res.payload}, nil)
}

// deepCheck reruns every 20th cold job in process and requires a
// byte-equal payload, and attests its receipt against the served trace
// (a cluster keeps traces on its workers, so there the receipt is
// attested against the payload alone, which checkServed did).
func (b *bench) deepCheck(ctx context.Context, base string, cfg serveConfig, ops []op, results []opResult) {
	cli := client.New(base)
	nCold := 0
	for i, o := range ops {
		if !o.cold || results[i].err != nil {
			continue
		}
		nCold++
		if (nCold-1)%20 != 0 {
			continue
		}
		b.attempted++
		if err := deepCheckOne(ctx, cli, cfg.cluster, o, results[i]); err != nil {
			b.fail("check of %.12s: %v", o.id, err)
		}
	}
}

func deepCheckOne(ctx context.Context, cli *client.Client, clustered bool, o op, res opResult) error {
	run, err := server.SimRunner(o.identity, server.RunOptions{})
	if err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	payload, err := server.MarshalResult(run)
	if err != nil {
		return err
	}
	if !bytes.Equal(payload, res.payload) {
		return errors.New("in-process rerun payload differs from the served one")
	}
	trace, err := cli.Trace(ctx, o.id)
	if clustered {
		if client.StatusCode(err) != http.StatusNotFound {
			return fmt.Errorf("cluster job trace: got %v, want 404", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("fetching trace: %w", err)
	}
	rc, err := receipt.Parse(res.rcpt)
	if err != nil {
		return err
	}
	return rc.Attest(receipt.Artifacts{Result: res.payload, Trace: trace}, nil)
}

// replayCosts prices the receipt gate piece by piece: for 20 of the
// workload's own cold jobs it reruns the simulation under a
// receipt-grade recorder, then times each step a served job's receipt
// takes. The payload must match the served one.
type replayCosts struct {
	machineBuild, jsonl, summarize, digest, receipt []float64 // ms
	events, bytes                                   []float64
}

func (b *bench) replay(ops []op) replayCosts {
	var c replayCosts
	n := 0
	for _, o := range ops {
		if !o.cold || n == 20 {
			continue
		}
		n++
		b.attempted++
		if err := c.add(o, b.payloads[o.id]); err != nil {
			b.fail("replay of %.12s: %v", o.id, err)
		}
	}
	return c
}

func (c *replayCosts) add(o op, served []byte) error {
	rec := obs.NewRecorder(receipt.TraceMask)
	t0 := time.Now()
	m, err := server.BuildMachine(o.identity, rec)
	if err != nil {
		return err
	}
	c.machineBuild = append(c.machineBuild, ms(time.Since(t0)))
	run, err := m.Run()
	if err != nil {
		return err
	}
	payload, err := server.MarshalResult(run)
	if err != nil {
		return err
	}
	if !bytes.Equal(payload, served) {
		return errors.New("payload differs from the served one")
	}
	events := rec.Events()
	timed := func(dst *[]float64, f func()) {
		t := time.Now()
		f()
		*dst = append(*dst, ms(time.Since(t)))
	}
	var trace []byte
	timed(&c.jsonl, func() { trace = receipt.TraceJSONL(events) })
	timed(&c.summarize, func() { txnview.Summarize(events) })
	timed(&c.digest, func() { receipt.Digest(trace) })
	timed(&c.receipt, func() { _, _, err = receipt.Build(o.identity, payload, events, receipt.ProducerLocal) })
	c.events = append(c.events, float64(len(events)))
	c.bytes = append(c.bytes, float64(len(trace)))
	return err
}
