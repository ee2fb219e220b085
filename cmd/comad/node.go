package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"coma/internal/cluster"
	"coma/internal/server"
)

// node is `comad node`, a cluster worker: it registers with a
// coordinator (comad serve -cluster), heartbeats at the period the
// coordinator advertises, and on each of its slots leases one job, runs
// it on the in-process simulator and streams its result and progress
// back. See README §Cluster for topology and failure semantics.
//
//	comad node -coordinator http://coordinator:7700 -slots 2
//
// The process drains on SIGINT/SIGTERM, and once its coordinator has
// drained (every accepted job finished, none left to lease): in-flight
// simulations finish and complete, the worker deregisters, then it
// exits 0. It holds no backlog to return: every lease is a job one of
// its slots is running. If the process dies abruptly instead, the
// coordinator requeues its leases after one lease TTL — that is the
// cluster's fault-tolerance path, not an error.
//
// A worker must be built from the same code revision as its
// coordinator: results are cached under the coordinator's revision, so
// registration is refused (HTTP 409) on a mismatch.
func node(args []string) int {
	fs := flag.NewFlagSet("comad node", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "http://localhost:7700", "coordinator base URL")
		name        = fs.String("name", "", "worker name in coordinator listings (default: hostname)")
		slots       = fs.Int("slots", 1, "simulations to run concurrently")
		revision    = fs.String("revision", "", "code revision reported at registration (default: build info)")
		quiet       = fs.Bool("quiet", false, "suppress per-job log lines")
		receiptKey  = fs.String("receipt-key", "", "hex HMAC-SHA256 key signing completion receipts (must match the coordinator's)")
	)
	fs.Parse(args)

	key, err := hex.DecodeString(*receiptKey)
	if err != nil {
		log.Printf("comad node: -receipt-key: %v", err)
		return 2
	}

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = fmt.Sprintf("comad-node-%d", os.Getpid())
		}
		*name = host
	}
	if *revision == "" {
		*revision = server.BuildRevision()
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("comad node: %v: draining (in-flight jobs finish)", sig)
		cancel()
	}()

	a := cluster.New(cluster.Config{
		Coordinator: *coordinator,
		Name:        *name,
		Slots:       *slots,
		Revision:    *revision,
		Logf:        logf,
		ReceiptKey:  key,
	})
	log.Printf("comad node: %s joining %s (%d slot(s), revision %s)",
		*name, *coordinator, *slots, server.ShortID(*revision))
	if err := a.Run(ctx); err != nil {
		log.Printf("comad node: %v", err)
		return 1
	}
	log.Printf("comad node: drained, bye")
	return 0
}
