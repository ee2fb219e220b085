// Command comad serves simulations over HTTP: a job queue with a
// bounded worker pool, a content-addressed result cache keyed by the
// canonical run identity (identical submissions coalesce onto one
// simulation; repeats are served from the store), SSE progress streams,
// and Prometheus metrics. See README §Serving for the API walkthrough.
//
//	comad serve -addr :7700 -workers 4 -cache-dir /var/cache/comad
//	comad loadtest -addr http://localhost:7700 -jobs 500 -hot 0.9
//
// serve drains on SIGINT/SIGTERM: accepted jobs finish (bounded by
// -drain-timeout), new submissions get 503, then the listener closes.
//
// loadtest drives a running daemon with a mixed hot/cold job stream
// (hot: one repeated configuration, served from cache after the first
// run; cold: unique seeds, each a real simulation) and reports
// throughput and latency percentiles per class.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"coma/internal/cluster"
	"coma/internal/config"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(serve(os.Args[2:]))
	case "loadtest":
		os.Exit(loadtest(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: comad serve [flags] | comad loadtest [flags]")
	fmt.Fprintln(os.Stderr, "run 'comad serve -h' or 'comad loadtest -h' for flags")
}

func serve(args []string) int {
	fs := flag.NewFlagSet("comad serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", ":7700", "listen address")
		workers      = fs.Int("workers", 0, "max simulations in flight (0: GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "max jobs waiting for a worker before 429")
		cacheDir     = fs.String("cache-dir", "", "persist results to this directory (empty: memory only)")
		revision     = fs.String("revision", "", "code revision for cache keys (default: build info)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Minute, "max time to finish accepted jobs on shutdown")
		quiet        = fs.Bool("quiet", false, "suppress per-job log lines")
		clusterMode  = fs.Bool("cluster", false, "coordinator mode: dispatch jobs to comanode workers instead of simulating in-process")
		leaseTTL     = fs.Duration("lease-ttl", 0, "cluster: worker liveness window before leases requeue (0: 15s)")
		heartbeat    = fs.Duration("heartbeat", 0, "cluster: heartbeat period advertised to workers (0: lease-ttl/3)")
		maxRequeues  = fs.Int("max-requeues", 0, "cluster: lease expiries a job survives before dead-letter (0: 3)")
		receiptKey   = fs.String("receipt-key", "", "hex HMAC-SHA256 key: sign emitted receipts, and require signed receipts on cluster completions")
		noReceipts   = fs.Bool("no-receipts", false, "skip receipt emission and trace recording for local runs")
	)
	fs.Parse(args)

	if *revision == "" {
		*revision = server.BuildRevision()
	}
	key, err := hex.DecodeString(*receiptKey)
	if err != nil {
		log.Printf("comad: -receipt-key: %v", err)
		return 2
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}
	s, err := server.New(server.Options{
		Workers: *workers, QueueDepth: *queue,
		Revision: *revision, CacheDir: *cacheDir,
		Logf:    logf,
		Cluster: *clusterMode, LeaseTTL: *leaseTTL,
		HeartbeatEvery: *heartbeat, MaxRequeues: *maxRequeues,
		ReceiptKey: key, NoReceipts: *noReceipts,
	})
	if err != nil {
		log.Printf("comad: %v", err)
		return 1
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if *clusterMode {
		log.Printf("comad: coordinating on %s (cluster mode, queue %d, revision %s) — waiting for comanode workers",
			*addr, *queue, server.ShortID(*revision))
	} else {
		log.Printf("comad: serving on %s (%d workers, queue %d, revision %s)",
			*addr, s.Workers(), *queue, server.ShortID(*revision))
	}

	select {
	case err := <-errc:
		log.Printf("comad: %v", err)
		return 1
	case sig := <-sigc:
		log.Printf("comad: %v: draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		log.Printf("comad: drain: %v", err)
		hs.Close()
		return 1
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	hs.Shutdown(shutdownCtx)
	log.Printf("comad: drained, bye")
	return 0
}

func loadtest(args []string) int {
	fs := flag.NewFlagSet("comad loadtest", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "http://localhost:7700", "daemon base URL")
		jobs         = fs.Int("jobs", 500, "total requests to issue")
		concurrency  = fs.Int("concurrency", 16, "concurrent clients")
		hot          = fs.Float64("hot", 0.9, "fraction of requests repeating one cached configuration")
		app          = fs.String("app", "mp3d", "workload preset")
		nodes        = fs.Int("nodes", 4, "machine size")
		instructions = fs.Int64("instructions", 20_000, "per-processor instruction budget (cold jobs are real runs)")
		hz           = fs.Float64("hz", 100, "recovery points per second")
		clusterMode  = fs.Bool("cluster", false, "cluster scaling benchmark: in-process coordinator + worker fleets of 1, 2 and 4 (ignores -addr)")
		clusterJobs  = fs.Int("cluster-jobs", 48, "cluster: cold jobs dispatched per fleet size")
		serviceMS    = fs.Int("service-ms", 200, "cluster: surrogate per-job service time in ms (models a long simulation without needing one CPU per worker)")
	)
	fs.Parse(args)
	if *jobs < 1 || *concurrency < 1 || *hot < 0 || *hot > 1 {
		fmt.Fprintln(os.Stderr, "comad loadtest: bad flag values")
		return 2
	}
	if *clusterMode {
		return clusterLoadtest(*clusterJobs, *serviceMS, *app, *nodes, *instructions, *hz)
	}

	c := client.New(*addr)
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "comad loadtest: daemon not reachable: %v\n", err)
		return 1
	}
	mkSpec := func(seed uint64) server.JobSpec {
		return server.JobSpec{
			App: *app, Nodes: *nodes, Protocol: "ecp",
			Instructions: *instructions, CheckpointHz: *hz, Seed: seed,
		}
	}

	// Warm the hot configuration so the hot stream measures pure cache
	// service, which is the daemon's steady state for repeated sweeps.
	warmStart := time.Now()
	if _, _, err := c.Run(ctx, mkSpec(1)); err != nil {
		fmt.Fprintf(os.Stderr, "comad loadtest: warmup: %v\n", err)
		return 1
	}
	fmt.Printf("warmup run: %.1f ms\n", time.Since(warmStart).Seconds()*1e3)

	// The request mix is decided per index so any -concurrency gives the
	// same hot/cold split; cold seeds start at 2 (1 is the hot seed).
	var (
		mu           sync.Mutex
		hotLat       []float64
		coldLat      []float64
		failures     int
		next         int
		nextMu       sync.Mutex
		coldBoundary = int(*hot * 100)
	)
	take := func() (int, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= *jobs {
			return 0, false
		}
		next++
		return next - 1, true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				isHot := i%100 < coldBoundary
				seed := uint64(1)
				if !isHot {
					seed = uint64(2 + i)
				}
				t0 := time.Now()
				_, _, err := c.Run(ctx, mkSpec(seed))
				lat := time.Since(t0).Seconds() * 1e3
				mu.Lock()
				if err != nil {
					failures++
				} else if isHot {
					hotLat = append(hotLat, lat)
				} else {
					coldLat = append(coldLat, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	fmt.Printf("%d jobs in %.2f s (%.1f jobs/s overall), %d failures\n",
		*jobs, wall, float64(*jobs)/wall, failures)
	report := func(name string, lat []float64) {
		if len(lat) == 0 {
			return
		}
		sort.Float64s(lat)
		fmt.Printf("  %-18s %6d jobs  p50 %8.2f ms  p90 %8.2f ms  p99 %8.2f ms  max %8.2f ms\n",
			name, len(lat), pctl(lat, 50), pctl(lat, 90), pctl(lat, 99), lat[len(lat)-1])
	}
	report("hot (cached)", hotLat)
	report("cold (simulated)", coldLat)
	if h, err := c.Health(ctx); err == nil {
		fmt.Printf("  daemon: %d workers, revision %s\n", h.Workers, server.ShortID(h.Revision))
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// clusterLoadtest measures dispatch-path scaling: for worker fleets of
// 1, 2 and 4 it boots a fresh in-process coordinator plus that many
// in-process agents and times how fast a batch of cold jobs drains.
//
// The workers run a surrogate runner — sleep for -service-ms, then a
// tiny real simulation — so each job's wall time models a long
// simulation while its CPU cost stays a small fraction of it. That is
// deliberate: the benchmark demonstrates that the coordinator's
// dispatch path (leases, heartbeats, completion) scales with fleet
// size, and it must do so honestly on a single-CPU box where four
// concurrent real simulations could never run 4x faster.
func clusterLoadtest(jobs, serviceMS int, app string, nodes int, instructions int64, hz float64) int {
	fmt.Printf("cluster scaling: %d cold jobs per fleet, %d ms surrogate service time per job\n", jobs, serviceMS)
	var base float64
	for _, workers := range []int{1, 2, 4} {
		rate, err := runFleet(workers, jobs, serviceMS, app, nodes, instructions, hz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comad loadtest: fleet of %d: %v\n", workers, err)
			return 1
		}
		if base == 0 {
			base = rate
		}
		fmt.Printf("  %d worker(s): %6.2f jobs/s  (%.2fx)\n", workers, rate, rate/base)
	}
	return 0
}

func runFleet(workers, jobs, serviceMS int, app string, nodes int, instructions int64, hz float64) (float64, error) {
	s, err := server.New(server.Options{
		Cluster:    true,
		Revision:   "loadtest",
		QueueDepth: jobs + 16,
		LeaseTTL:   10 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	baseURL := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents sync.WaitGroup
	for i := 0; i < workers; i++ {
		a := cluster.New(cluster.Config{
			Coordinator: baseURL,
			Name:        fmt.Sprintf("lt-%d", i),
			Revision:    "loadtest",
			Runner: func(id config.RunIdentity, opts server.RunOptions) (*stats.Run, error) {
				time.Sleep(time.Duration(serviceMS) * time.Millisecond)
				return server.SimRunner(id, opts)
			},
		})
		agents.Add(1)
		go func() {
			defer agents.Done()
			a.Run(ctx)
		}()
	}

	c := client.New(baseURL)
	for deadline := time.Now().Add(10 * time.Second); ; {
		h, err := c.Health(context.Background())
		if err == nil && h.ClusterWorkers == workers {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("only %d of %d workers registered", h.ClusterWorkers, workers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var (
		next   int
		nextMu sync.Mutex
		fail   error
		failMu sync.Mutex
	)
	take := func() (int, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= jobs {
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				_, _, err := c.Run(context.Background(), server.JobSpec{
					App: app, Nodes: nodes, Protocol: "ecp",
					Instructions: instructions, CheckpointHz: hz,
					Seed: uint64(1 + i), // unique: every job is a real dispatch
				})
				if err != nil {
					failMu.Lock()
					fail = err
					failMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cancel()
	agents.Wait()
	if fail != nil {
		return 0, fail
	}
	return float64(jobs) / wall, nil
}

// pctl returns the p-th percentile of a sorted sample, by rank.
func pctl(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}
