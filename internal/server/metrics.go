package server

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"coma/internal/obs"
)

// metrics is the daemon's hand-rolled Prometheus registry: a handful of
// counters, two gauges fed by the scheduler, and fixed-bucket latency
// histograms. Everything is guarded by one mutex — the hot path is a
// few increments per job, not per simulated event — and the exposition
// is the standard text format, so any Prometheus scraper can consume
// /metrics without the daemon importing a client library.
type metrics struct {
	mu sync.Mutex

	submitted  int64
	cacheHits  int64
	cacheJoins int64
	cacheMiss  int64
	jobsByEnd  map[State]int64 // terminal states only
	httpByCode map[int]int64
	// receipts counts execution receipts emitted or accepted, by
	// invariant verdict ("ok", "violated", "unchecked").
	receipts map[string]int64

	queueWait histogram // seconds queued before a worker picks the job up
	runTime   histogram // seconds simulating (done jobs)

	// obsEvents tallies every simulator observability event by kind,
	// across all jobs. Updated with atomic adds straight from the
	// progressBridge on the simulation hot path — deliberately outside
	// mu, which would be far too expensive per event.
	obsEvents [obs.NumKinds]int64
}

func newMetrics() *metrics {
	// Bucket bounds in seconds: cached hits resolve in microseconds,
	// quick jobs in tens of milliseconds, paper-scale runs in minutes.
	bounds := []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 25, 100, 500}
	return &metrics{
		jobsByEnd:  make(map[State]int64),
		httpByCode: make(map[int]int64),
		receipts:   make(map[string]int64),
		queueWait:  newHistogram(bounds),
		runTime:    newHistogram(bounds),
	}
}

func (m *metrics) countSubmission(cache string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
	switch cache {
	case "hit":
		m.cacheHits++
	case "join":
		m.cacheJoins++
	default:
		m.cacheMiss++
	}
}

func (m *metrics) countTerminal(st State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsByEnd[st]++
}

func (m *metrics) countHTTP(code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.httpByCode[code]++
}

func (m *metrics) countReceipt(verdict string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.receipts[verdict]++
}

func (m *metrics) observeQueueWait(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.observe(seconds)
}

func (m *metrics) observeRunTime(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runTime.observe(seconds)
}

// hitRatio returns cache hits (store + coalesced) over submissions.
func (m *metrics) hitRatio() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.submitted == 0 {
		return 0
	}
	return float64(m.cacheHits+m.cacheJoins) / float64(m.submitted)
}

// write emits the Prometheus text exposition. Gauges owned by the
// scheduler (queue depth, in-flight), the store, the per-running-job
// inspection gauges, and the cluster scheduler snapshot are passed in.
func (m *metrics) write(w io.Writer, queueDepth, inflight int, store *Store, jobs []jobGauge, clu clusterStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP comad_queue_depth Jobs accepted but not yet picked up by a worker.\n")
	fmt.Fprintf(w, "# TYPE comad_queue_depth gauge\ncomad_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP comad_inflight_jobs Simulations executing right now.\n")
	fmt.Fprintf(w, "# TYPE comad_inflight_jobs gauge\ncomad_inflight_jobs %d\n", inflight)
	fmt.Fprintf(w, "# HELP comad_store_entries Results in the content-addressed store.\n")
	fmt.Fprintf(w, "# TYPE comad_store_entries gauge\ncomad_store_entries %d\n", store.Len())
	fmt.Fprintf(w, "# HELP comad_store_aux_bytes Bytes held in memory by the artifacts stored beside results, by kind.\n")
	fmt.Fprintf(w, "# TYPE comad_store_aux_bytes gauge\n")
	fmt.Fprintf(w, "comad_store_aux_bytes{kind=\"receipt\"} %d\n", store.Bytes(KindReceipt))

	fmt.Fprintf(w, "# HELP comad_jobs_submitted_total Job submissions accepted.\n")
	fmt.Fprintf(w, "# TYPE comad_jobs_submitted_total counter\ncomad_jobs_submitted_total %d\n", m.submitted)
	fmt.Fprintf(w, "# HELP comad_cache_requests_total Submissions by cache outcome.\n")
	fmt.Fprintf(w, "# TYPE comad_cache_requests_total counter\n")
	fmt.Fprintf(w, "comad_cache_requests_total{outcome=\"hit\"} %d\n", m.cacheHits)
	fmt.Fprintf(w, "comad_cache_requests_total{outcome=\"join\"} %d\n", m.cacheJoins)
	fmt.Fprintf(w, "comad_cache_requests_total{outcome=\"miss\"} %d\n", m.cacheMiss)

	fmt.Fprintf(w, "# HELP comad_jobs_total Jobs by terminal state.\n")
	fmt.Fprintf(w, "# TYPE comad_jobs_total counter\n")
	for _, st := range []State{StateDone, StateFailed, StateCancelled, StateDeadLetter} {
		fmt.Fprintf(w, "comad_jobs_total{state=%q} %d\n", string(st), m.jobsByEnd[st])
	}

	fmt.Fprintf(w, "# HELP coma_receipts_total Execution receipts emitted or accepted, by invariant verdict.\n")
	fmt.Fprintf(w, "# TYPE coma_receipts_total counter\n")
	for _, verdict := range []string{"ok", "violated", "unchecked"} {
		fmt.Fprintf(w, "coma_receipts_total{verdict=%q} %d\n", verdict, m.receipts[verdict])
	}

	// Cluster scheduler families: emitted unconditionally (zeros on a
	// single-process daemon) so scrapers see stable metadata.
	fmt.Fprintf(w, "# HELP coma_cluster_workers Registered worker nodes by state.\n")
	fmt.Fprintf(w, "# TYPE coma_cluster_workers gauge\n")
	fmt.Fprintf(w, "coma_cluster_workers{state=\"active\"} %d\n", clu.active)
	fmt.Fprintf(w, "coma_cluster_workers{state=\"dead\"} %d\n", clu.dead)
	fmt.Fprintf(w, "# HELP coma_cluster_lease_expiries_total Leases expired because their worker missed its liveness window.\n")
	fmt.Fprintf(w, "# TYPE coma_cluster_lease_expiries_total counter\ncoma_cluster_lease_expiries_total %d\n", clu.leaseExpiries)
	fmt.Fprintf(w, "# HELP coma_cluster_requeues_total Jobs returned to the dispatch queue (lease expiry or worker deregistration).\n")
	fmt.Fprintf(w, "# TYPE coma_cluster_requeues_total counter\ncoma_cluster_requeues_total %d\n", clu.requeues)
	fmt.Fprintf(w, "# HELP coma_cluster_digest_mismatches_total Worker completions rejected because the payload failed validation or its receipt digest.\n")
	fmt.Fprintf(w, "# TYPE coma_cluster_digest_mismatches_total counter\ncoma_cluster_digest_mismatches_total %d\n", clu.digestMismatches)

	fmt.Fprintf(w, "# HELP comad_http_responses_total HTTP responses by status code.\n")
	fmt.Fprintf(w, "# TYPE comad_http_responses_total counter\n")
	codes := make([]int, 0, len(m.httpByCode))
	for code := range m.httpByCode {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "comad_http_responses_total{code=\"%d\"} %d\n", code, m.httpByCode[code])
	}

	fmt.Fprintf(w, "# HELP coma_obs_events_total Simulator observability events by kind, across all jobs.\n")
	fmt.Fprintf(w, "# TYPE coma_obs_events_total counter\n")
	for k := 0; k < obs.NumKinds; k++ {
		fmt.Fprintf(w, "coma_obs_events_total{kind=%q} %d\n",
			obs.Kind(k).String(), atomic.LoadInt64(&m.obsEvents[k]))
	}

	// Per-running-job gauges, sampled from each job's live-inspection
	// controller at scrape time. Families are emitted even with no
	// running jobs so scrapers see stable metadata.
	fmt.Fprintf(w, "# HELP coma_job_sim_cycles Simulated cycles reached by each running job.\n")
	fmt.Fprintf(w, "# TYPE coma_job_sim_cycles gauge\n")
	for _, g := range jobs {
		fmt.Fprintf(w, "coma_job_sim_cycles{job=%q} %d\n", g.id, g.simCycles)
	}
	fmt.Fprintf(w, "# HELP coma_job_events Simulator events dispatched by each running job.\n")
	fmt.Fprintf(w, "# TYPE coma_job_events gauge\n")
	for _, g := range jobs {
		fmt.Fprintf(w, "coma_job_events{job=%q} %d\n", g.id, g.events)
	}
	fmt.Fprintf(w, "# HELP coma_job_events_per_second Event dispatch rate since the previous scrape (wall clock).\n")
	fmt.Fprintf(w, "# TYPE coma_job_events_per_second gauge\n")
	for _, g := range jobs {
		fmt.Fprintf(w, "coma_job_events_per_second{job=%q} %g\n", g.id, g.eventsPerSec)
	}
	fmt.Fprintf(w, "# HELP coma_queue_depth In-flight mesh messages per subnet for each running job.\n")
	fmt.Fprintf(w, "# TYPE coma_queue_depth gauge\n")
	for _, g := range jobs {
		fmt.Fprintf(w, "coma_queue_depth{job=%q,subnet=\"request\"} %d\n", g.id, g.reqDepth)
		fmt.Fprintf(w, "coma_queue_depth{job=%q,subnet=\"reply\"} %d\n", g.id, g.repDepth)
	}

	m.queueWait.write(w, "comad_queue_wait_seconds", "Wall seconds jobs spent queued.")
	m.runTime.write(w, "comad_job_run_seconds", "Wall seconds jobs spent simulating.")
	writeGoRuntime(w)
}

// goRuntimeSeries maps each Go runtime gauge on /metrics to the
// runtime/metrics sample it reports.
var goRuntimeSeries = []struct{ name, typ, help, sample string }{
	{"comad_go_heap_live_bytes", "gauge", "Heap bytes held by objects the last GC cycle marked live (0 before the first cycle).", "/gc/heap/live:bytes"},
	{"comad_go_goroutines", "gauge", "Live goroutines in the daemon.", "/sched/goroutines:goroutines"},
	{"comad_go_gc_cycles_total", "counter", "Completed GC cycles since the daemon started.", "/gc/cycles/total:gc-cycles"},
	{"comad_go_gc_pause_cpu_seconds_total", "counter", "Estimated CPU seconds the GC's stop-the-world pauses took from the daemon.", "/cpu/classes/gc/pause:cpu-seconds"},
	{"comad_go_gc_cpu_seconds_total", "counter", "Estimated CPU seconds the GC took from the daemon, pauses and background marking together.", "/cpu/classes/gc/total:cpu-seconds"},
}

// writeGoRuntime emits the Go runtime series, read at scrape time.
func writeGoRuntime(w io.Writer) {
	samples := make([]rtmetrics.Sample, len(goRuntimeSeries))
	for i, s := range goRuntimeSeries {
		samples[i].Name = s.sample
	}
	rtmetrics.Read(samples)
	for i, s := range goRuntimeSeries {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		if v := samples[i].Value; v.Kind() == rtmetrics.KindFloat64 {
			fmt.Fprintf(w, "%s %g\n", s.name, v.Float64())
		} else {
			fmt.Fprintf(w, "%s %d\n", s.name, v.Uint64())
		}
	}
}

// histogram is a fixed-bucket Prometheus-style histogram; the caller
// synchronises.
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []int64   // len(bounds)+1
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total)
}
