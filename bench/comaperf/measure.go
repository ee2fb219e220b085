package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time (getrusage), the
// host cost every thread of the process paid: simulator, server,
// in-process clients and agents, and the Go runtime.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Names of the runtime/metrics this benchmark reads.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmSchedLat     = "/sched/latencies:seconds"
	rmLiveHeap     = "/gc/heap/live:bytes"
	rmHeapObjects  = "/memory/classes/heap/objects:bytes"
	rmGoroutines   = "/sched/goroutines:goroutines"
)

// spent is what the process used over a measured phase: CPU time,
// allocations, GC work and scheduling latencies.
type spent struct {
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	allocMB  float64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
	sched    []uint64 // /sched/latencies bucket counts
	buckets  []float64
}

// usage is a point-in-time reading of the process's cumulative costs;
// since turns two readings into what the phase between them spent.
type usage struct {
	at time.Time
	spent
}

func readUsage() usage {
	s := []metrics.Sample{
		{Name: rmAllocObjects}, {Name: rmAllocBytes}, {Name: rmGCCycles},
		{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat},
	}
	metrics.Read(s)
	h := s[5].Value.Float64Histogram()
	return usage{at: time.Now(), spent: spent{
		cpu:      cpuTime(),
		allocs:   s[0].Value.Uint64(),
		allocMB:  float64(s[1].Value.Uint64()) / (1 << 20),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
		sched:    slices.Clone(h.Counts),
		buckets:  h.Buckets,
	}}
}

func since(a usage) spent {
	b := readUsage()
	d := b.spent
	d.wall = b.at.Sub(a.at)
	d.cpu -= a.cpu
	d.allocs -= a.allocs
	d.allocMB -= a.allocMB
	d.gcCycles -= a.gcCycles
	d.gcCPU -= a.gcCPU
	d.totalCPU -= a.totalCPU
	for i := range d.sched {
		d.sched[i] -= a.sched[i]
	}
	return d
}

// add accumulates another phase into d.
func (d *spent) add(o spent) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.allocMB += o.allocMB
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	if d.sched == nil {
		d.sched = make([]uint64, len(o.sched))
		d.buckets = o.buckets
	}
	for i := range o.sched {
		d.sched[i] += o.sched[i]
	}
}

// schedP99 is the 99th percentile of goroutine scheduling latency over
// the phase, as the upper bound of the histogram bucket holding it.
func (d spent) schedP99() time.Duration {
	var total uint64
	for _, c := range d.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d.sched {
		cum += c
		if cum >= rank {
			hi := d.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// peaks are the largest values a sampler saw.
type peaks struct {
	liveHeap   uint64 // bytes live after the last GC (/gc/heap/live)
	heap       uint64 // bytes in heap objects, live or not yet swept
	goroutines uint64
}

func (p *peaks) observe(s []metrics.Sample) {
	p.liveHeap = max(p.liveHeap, s[0].Value.Uint64())
	p.heap = max(p.heap, s[1].Value.Uint64())
	p.goroutines = max(p.goroutines, s[2].Value.Uint64())
}

// sampler reads heap and goroutine gauges every 10 ms on its own
// goroutine until stopped.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	p     peaks // written by the sampler goroutine until done closes
}

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: rmLiveHeap}, {Name: rmHeapObjects}, {Name: rmGoroutines}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			s.p.observe(samples)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler goroutine, and returns the
// peaks it saw.
func (s *sampler) stop() peaks {
	close(s.stopc)
	<-s.done
	return s.p
}

// liveHeapNow forces a collection and returns the bytes it left live:
// the heap the caller still holds, independent of when the runtime
// happened to collect during the phase.
func liveHeapNow() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of ascending
// samples; a failed operation is recorded as +Inf, so it can only raise
// a percentile.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []struct {
	p     float64
	label string
}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}}

// tail picks the highest of p90/p95/p99/p99.9 that leaves at least ten
// samples beyond it, so the tail never rests on a handful of requests.
// With fewer than 100 samples none does; it then falls back to p90 and
// reports enough=false, so the output can say so. (The alternative, the
// maximum, is the least repeatable statistic of a sample.)
func tail(samples []float64) (label string, v float64, enough bool) {
	sorted := slices.Sorted(slices.Values(samples))
	n := len(sorted)
	for _, c := range tailPercentiles {
		rank := int(math.Ceil(c.p*float64(n) - 1e-9))
		if n-rank >= 10 {
			return c.label, percentile(sorted, c.p), true
		}
	}
	return "p90", percentile(sorted, 0.90), false
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(n=4), the method
// the run-to-run spread of a metric is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
