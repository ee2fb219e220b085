package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"coma/internal/stats"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer lists are mirrored in BENCHMARK.json at the repository root;
// TestSmoke keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off. Each workload reports
// every one of them: a sim run is a job, as a served request is. They
// are the metrics whose run-to-run spread on the reference host stays
// within a bound of 15% (setup_s 20%).
var endToEnd = []metricDef{
	{"allocs_per_job", "allocs/job"},
	{"peak_live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// timing metrics are the end-to-end throughput, latency and CPU cost,
// measured with tracing off like endToEnd. On the reference host they
// drift by up to 45% over minutes with the load of other tenants, beyond
// any bound a regression check could use, so they are reported with the
// per-layer metrics, which carry no bound, and printed on every run.
// cold_tail_ms applies to the serve workloads only: a sim round has four
// runs, too few for a tail with ten samples beyond it.
var timing = []metricDef{
	{"timing.jobs_per_s", "jobs/s"},
	{"timing.cold_p50_ms", "ms"},
	{"timing.cold_tail_ms", "ms"},
	{"timing.cpu_ms_per_job", "ms/job"},
}

// perLayer metrics come from a traced run (-trace 1). A metric that does
// not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), timing...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "share"})
	}
	defs = append(defs, metricDef{"cpu.sim_handoff", "share"})
	for _, c := range simCountDefs {
		defs = append(defs, c.metricDef)
	}
	return append(defs, []metricDef{
		{"sim.ns_per_event", "ns/event"},
		{"mesh.ns_per_message", "ns/msg"},
		{"cache.ns_per_access", "ns/access"},
		{"am.ns_per_access", "ns/access"},
		{"workload.ns_per_ref", "ns/ref"},
		{"machine.build_ms", "ms"},

		{"server.hot_p50_ms", "ms"},
		{"server.hot_p99_ms", "ms"},
		{"server.receipt_get_p50_ms", "ms"},
		{"server.sim_p50_ms", "ms"},
		{"server.overhead_p50_ms", "ms"},
		{"server.queue_wait_mean_ms", "ms"},
		{"server.run_mean_ms", "ms"},
		{"server.hit_ratio", "ratio"},
		{"cluster.sim_p50_ms", "ms"},
		{"cluster.dispatch_p50_ms", "ms"},
		{"cluster.lease_expiries", "count"},
		{"cluster.requeues", "count"},
		{"cluster.steals", "count"},
		{"cluster.digest_mismatches", "count"},
		{"cluster.receipt_races", "count"},

		{"receipt.build_ms", "ms"},
		{"obs.jsonl_ms", "ms"},
		{"txnview.summarize_ms", "ms"},
		{"receipt.digest_ms", "ms"},
		{"receipt.trace_events", "events"},
		{"receipt.trace_bytes", "bytes"},

		{"runtime.gc_cycles", "gc-cycles"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.heap_peak_mb", "MB"},
		{"runtime.goroutines_peak", "goroutines"},
		{"runtime.sched_latency_p99_us", "us"},

		{"trace.overhead", "share"},
	}...)
}()

// simCounts are simulated statistics summed over one round's runs. They
// are outputs of a deterministic simulation, so they repeat exactly for
// a seed; they are never speeds.
type simCounts [len(simCountDefs)]int64

var simCountDefs = [...]struct {
	metricDef
	get func(r *stats.Run, t *stats.Node) int64
}{
	{metricDef{"sim.events", "events"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Events }},
	{metricDef{"sim.cycles", "cycles"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Cycles }},
	{metricDef{"workload.instructions", "instr"}, func(_ *stats.Run, t *stats.Node) int64 { return t.Instructions }},
	{metricDef{"workload.references", "refs"}, func(_ *stats.Run, t *stats.Node) int64 { return t.References() }},
	{metricDef{"cache.accesses", "accesses"}, func(r *stats.Run, _ *stats.Node) int64 { return r.CacheReads + r.CacheWrites }},
	{metricDef{"cache.read_misses", "misses"}, func(r *stats.Run, _ *stats.Node) int64 { return r.CacheReadMiss }},
	{metricDef{"cache.write_misses", "misses"}, func(r *stats.Run, _ *stats.Node) int64 { return r.CacheWriteMis }},
	{metricDef{"am.accesses", "accesses"}, func(_ *stats.Run, t *stats.Node) int64 { return t.AMAccesses() }},
	{metricDef{"am.read_misses", "misses"}, func(_ *stats.Run, t *stats.Node) int64 { return t.AMReadMisses }},
	{metricDef{"am.write_misses", "misses"}, func(_ *stats.Run, t *stats.Node) int64 { return t.AMWriteMisses }},
	{metricDef{"am.pages_peak", "pages"}, func(r *stats.Run, _ *stats.Node) int64 { return int64(r.PagesPeak) }},
	{metricDef{"coherence.fills_remote", "fills"}, func(_ *stats.Run, t *stats.Node) int64 { return t.FillsRemote }},
	{metricDef{"coherence.fills_cold", "fills"}, func(_ *stats.Run, t *stats.Node) int64 { return t.FillsCold }},
	{metricDef{"coherence.injections", "injections"}, func(_ *stats.Run, t *stats.Node) int64 { return t.TotalInjections() }},
	{metricDef{"coherence.inject_hops", "hops"}, func(_ *stats.Run, t *stats.Node) int64 { return t.InjectHops }},
	{metricDef{"mesh.messages", "msgs"}, func(r *stats.Run, _ *stats.Node) int64 { return r.NetMessages }},
	{metricDef{"mesh.flits", "flits"}, func(r *stats.Run, _ *stats.Node) int64 { return r.NetFlits }},
	{metricDef{"core.recovery_points", "count"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Ckpt.Established }},
	{metricDef{"core.rollbacks", "count"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Ckpt.Recoveries }},
	{metricDef{"core.create_cycles", "cycles"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Ckpt.CreateCycles }},
	{metricDef{"core.commit_cycles", "cycles"}, func(r *stats.Run, _ *stats.Node) int64 { return r.Ckpt.CommitCycles }},
	{metricDef{"core.items_replicated", "items"}, func(_ *stats.Run, t *stats.Node) int64 { return t.CkptItemsReplicated }},
}

func (c *simCounts) add(r *stats.Run) {
	t := r.Total()
	for i, d := range simCountDefs {
		c[i] += d.get(r, &t)
	}
}

func (c *simCounts) get(name string) int64 {
	for i, d := range simCountDefs {
		if d.name == name {
			return c[i]
		}
	}
	panic("unknown simulated count " + name)
}

// round is what one round of a workload measured. Latencies are in ms;
// a failed request is +Inf.
type round struct {
	setup time.Duration
	use   spent // the timed phase
	jobs  int   // completed in the timed phase
	heap  uint64

	coldLat, hotLat, receiptLat []float64
	receiptRaces                int
	builds                      []time.Duration
	peaks                       peaks
	counts                      simCounts

	// Traced rounds only.
	profiles        [][]byte
	simMS, overhead []float64 // per cold job: wrapped-runner time, latency minus it
	scrape          map[string]float64
}

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perRound is the median over rounds of a per-round value.
func perRound(rs []round, f func(r round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func pooled(rs []round, f func(r round) []float64) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r)...)
	}
	return xs
}

// endToEndMetrics reduces untraced rounds to the end-to-end and timing
// metrics: the median over rounds for every per-round value and, on a
// serve workload, the tail over the cold latencies of all rounds pooled.
// It also returns a note naming the tail's percentile and sample count.
func endToEndMetrics(rs []round, serve bool) (map[string]float64, string) {
	m := map[string]float64{
		"allocs_per_job":    perRound(rs, func(r round) float64 { return float64(r.use.allocs) / float64(r.jobs) }),
		"peak_live_heap_mb": perRound(rs, func(r round) float64 { return float64(r.heap) / (1 << 20) }),
		"setup_s":           perRound(rs, func(r round) float64 { return r.setup.Seconds() }),

		"timing.jobs_per_s":     perRound(rs, func(r round) float64 { return float64(r.jobs) / r.use.wall.Seconds() }),
		"timing.cold_p50_ms":    perRound(rs, func(r round) float64 { return median(r.coldLat) }),
		"timing.cpu_ms_per_job": perRound(rs, func(r round) float64 { return ms(r.use.cpu) / float64(r.jobs) }),
	}
	if !serve {
		return m, "timing.cold_tail_ms: not measured (a sim round has only four runs)"
	}
	cold := pooled(rs, func(r round) []float64 { return r.coldLat })
	label, v, enough := tail(cold)
	m["timing.cold_tail_ms"] = v
	note := fmt.Sprintf("tail percentile of timing.cold_tail_ms: %s of %d cold latencies", label, len(cold))
	if !enough {
		note += " (fewer than 10 beyond it)"
	}
	return m, note
}

// layerMetrics reduces a traced run to the per-layer metrics. Traced
// rounds give CPU shares, host costs, runner timings, scrapes and
// runtime figures; untraced rounds of the same run give the timing
// metrics (e2e, from endToEndMetrics), the client-side latencies and the
// baseline for the tracing overhead.
func layerMetrics(w workload, untraced, traced []round, e2e map[string]float64, rc replayCosts) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, d := range timing {
		m[d.name] = e2e[d.name]
	}
	split := newCPUSplit()
	var use spent
	for _, r := range traced {
		use.add(r.use)
		for _, p := range r.profiles {
			if err := split.addProfile(p); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = split.share(l)
	}
	m["cpu.sim_handoff"] = split.share("sim_handoff")

	counts := traced[0].counts
	for i, d := range simCountDefs {
		m[d.name] = float64(counts[i])
	}
	// Host nanoseconds per simulated unit: the layer's share of the
	// traced phases' CPU time over the units those phases simulated.
	cpuNs := float64(use.cpu.Nanoseconds())
	perUnit := func(layer, count string) float64 {
		n := float64(counts.get(count)) * float64(len(traced))
		if n == 0 {
			return 0
		}
		return split.share(layer) * cpuNs / n
	}
	m["sim.ns_per_event"] = perUnit("sim", "sim.events")
	m["mesh.ns_per_message"] = perUnit("mesh", "mesh.messages")
	m["cache.ns_per_access"] = perUnit("cache", "cache.accesses")
	m["am.ns_per_access"] = perUnit("am", "am.accesses")
	m["workload.ns_per_ref"] = perUnit("workload", "workload.references")

	var builds []float64
	for _, r := range traced {
		for _, b := range r.builds {
			builds = append(builds, ms(b))
		}
	}
	m["machine.build_ms"] = median(append(builds, rc.machineBuild...))

	if w.srv != nil {
		hot := pooled(untraced, func(r round) []float64 { return r.hotLat })
		if len(hot) > 0 {
			m["server.hot_p50_ms"] = median(hot)
			m["server.hot_p99_ms"] = percentile(slices.Sorted(slices.Values(hot)), 0.99)
		}
		m["server.receipt_get_p50_ms"] = median(pooled(untraced, func(r round) []float64 { return r.receiptLat }))
		sim := median(pooled(traced, func(r round) []float64 { return r.simMS }))
		over := median(pooled(traced, func(r round) []float64 { return r.overhead }))
		prefix := "server."
		if w.srv[0].cluster {
			prefix = "cluster."
			m["cluster.dispatch_p50_ms"] = over
		} else {
			m["server.overhead_p50_ms"] = over
		}
		m[prefix+"sim_p50_ms"] = sim

		meanMS := func(r round, h string) float64 {
			if n := r.scrape[h+"_count"]; n > 0 {
				return 1000 * r.scrape[h+"_sum"] / n
			}
			return 0
		}
		m["server.queue_wait_mean_ms"] = perRound(traced, func(r round) float64 { return meanMS(r, "comad_queue_wait_seconds") })
		m["server.run_mean_ms"] = perRound(traced, func(r round) float64 { return meanMS(r, "comad_job_run_seconds") })
		m["server.hit_ratio"] = perRound(traced, func(r round) float64 {
			hits := r.scrape[`comad_cache_requests_total{outcome="hit"}`] + r.scrape[`comad_cache_requests_total{outcome="join"}`]
			return hits / r.scrape["comad_jobs_submitted_total"]
		})
		for name, series := range map[string]string{
			"cluster.lease_expiries":    "coma_cluster_lease_expiries_total",
			"cluster.requeues":          "coma_cluster_requeues_total",
			"cluster.steals":            "coma_cluster_steals_total",
			"cluster.digest_mismatches": "coma_cluster_digest_mismatches_total",
		} {
			for _, r := range traced {
				m[name] += r.scrape[series]
			}
		}

		for _, r := range append(untraced, traced...) {
			m["cluster.receipt_races"] += float64(r.receiptRaces)
		}

		m["receipt.build_ms"] = median(rc.receipt)
		m["obs.jsonl_ms"] = median(rc.jsonl)
		m["txnview.summarize_ms"] = median(rc.summarize)
		m["receipt.digest_ms"] = median(rc.digest)
		m["receipt.trace_events"] = median(rc.events)
		m["receipt.trace_bytes"] = median(rc.bytes)
	}

	m["runtime.gc_cycles"] = perRound(traced, func(r round) float64 { return float64(r.use.gcCycles) })
	if use.totalCPU > 0 {
		m["runtime.gc_cpu_share"] = use.gcCPU / use.totalCPU
	}
	m["runtime.alloc_mb"] = perRound(traced, func(r round) float64 { return r.use.allocMB })
	m["runtime.heap_peak_mb"] = perRound(traced, func(r round) float64 { return float64(r.peaks.heap) / (1 << 20) })
	m["runtime.goroutines_peak"] = perRound(traced, func(r round) float64 { return float64(r.peaks.goroutines) })
	m["runtime.sched_latency_p99_us"] = float64(use.schedP99().Nanoseconds()) / 1e3

	rate := func(r round) float64 { return float64(r.jobs) / r.use.wall.Seconds() }
	m["trace.overhead"] = 1 - perRound(traced, rate)/perRound(untraced, rate)
	for _, d := range perLayer {
		m[d.name] = zeroIfEmpty(m[d.name])
	}
	return m, nil
}

// zeroIfEmpty maps the NaN of an empty sample (a metric that does not
// apply to the workload) to 0.
func zeroIfEmpty(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
