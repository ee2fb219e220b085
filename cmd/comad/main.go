// Command comad serves simulations over HTTP: a job queue with a
// bounded worker pool, a content-addressed result cache keyed by the
// canonical run identity (identical submissions coalesce onto one
// simulation; repeats are served from the store), SSE progress streams,
// and Prometheus metrics. See README §Serving for the API walkthrough.
//
//	comad serve -addr :7700 -workers 4 -cache-dir /var/cache/comad
//	comad node -coordinator http://coordinator:7700 -slots 2
//	comad top -addr http://localhost:7700
//
// serve drains on SIGINT/SIGTERM: accepted jobs finish (bounded by
// -drain-timeout), new submissions get 503, then the listener closes.
//
// node is a cluster worker for a `comad serve -cluster` coordinator, and
// top is a terminal live view of a running job (see node.go and top.go).
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coma/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(serve(os.Args[2:]))
	case "node":
		os.Exit(node(os.Args[2:]))
	case "top":
		os.Exit(top(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: comad serve [flags] | comad node [flags] | comad top [flags]")
	fmt.Fprintln(os.Stderr, "run 'comad <command> -h' for flags")
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
		clusterMode  = fs.Bool("cluster", false, "coordinator mode: dispatch jobs to comad node workers instead of simulating in-process")
		leaseTTL     = fs.Duration("lease-ttl", 0, "cluster: worker liveness window before leases requeue (0: 15s)")
		heartbeat    = fs.Duration("heartbeat", 0, "cluster: heartbeat period advertised to workers (0: lease-ttl/3)")
		maxRequeues  = fs.Int("max-requeues", 0, "cluster: lease expiries a job survives before dead-letter (0: 3)")
		receiptKey   = fs.String("receipt-key", "", "hex HMAC-SHA256 key: sign emitted receipts, and require signed receipts on cluster completions")
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
		ReceiptKey: key,
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
		log.Printf("comad: coordinating on %s (cluster mode, queue %d, revision %s) — waiting for comad node workers",
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
