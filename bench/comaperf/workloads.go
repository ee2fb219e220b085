package main

import (
	"coma/internal/config"
	"coma/internal/server"
)

// The four workloads. Every input is derived from -seed; modelled
// caches start empty in every simulation, as in the paper's runs.
//
// A run of a workload is a fixed number of rounds (see rounds), and
// each round does a fixed amount of work, so the same seed and -seconds
// give the same inputs and the same in-memory store on every commit,
// whatever its speed. Each round sets up afresh (machines, or a server
// and its agents), so set-up time is measured once per round and
// reported as the median.

// simApps are the SPLASH applications of the paper's Table 3.
var simApps = []string{"barnes", "cholesky", "mp3d", "water"}

// simConfig is one sim workload at one size.
type simConfig struct {
	nodes    int
	protocol string
	hz       float64
	scale    float64
	// faults holds each app's planned failures as absolute cycles: a
	// transient one at about 40% and a permanent one at about 70% of the
	// app's fault-free cycle count at this scale. The run checks that
	// every one of them fired.
	faults map[string][]config.FailureEvent
	// seedPool, when non-zero, maps -seed onto run seeds 1..seedPool.
	// Every seed set of sim-ecp's pool was checked to complete with both
	// failures firing: with some other seeds the simulator hangs after
	// the permanent failure (for example -seed 202, mp3d: every processor
	// stays blocked while recovery points keep committing), and a
	// benchmark input must not fail.
	seedPool uint64
	// maxCycles stops a run that hangs anyway, several times past its
	// expected length, so it fails in well under a second.
	maxCycles int64
}

// Nodes that fail in sim-ecp: one recovers, one is lost for good.
const (
	transientNode = 5
	permanentNode = 11
)

func plan(transientAt, permanentAt int64) []config.FailureEvent {
	return []config.FailureEvent{
		{At: transientAt, Node: transientNode},
		{At: permanentAt, Node: permanentNode, Permanent: true},
	}
}

var simECP = [2]simConfig{
	{
		nodes: 16, protocol: "ecp", hz: 400, scale: 0.015, seedPool: 100, maxCycles: 4_000_000,
		faults: map[string][]config.FailureEvent{
			"barnes":   plan(193_000, 338_000),
			"cholesky": plan(171_000, 300_000),
			"mp3d":     plan(83_000, 145_000),
			"water":    plan(82_000, 143_000),
		},
	},
	{ // smoke
		nodes: 16, protocol: "ecp", hz: 400, scale: 0.002, seedPool: 100, maxCycles: 1_000_000,
		faults: map[string][]config.FailureEvent{
			"barnes":   plan(34_000, 60_000),
			"cholesky": plan(24_000, 42_000),
			"mp3d":     plan(10_400, 18_200),
			"water":    plan(11_600, 20_300),
		},
	},
}

var simSTD = [2]simConfig{
	{nodes: 56, protocol: "standard", scale: 0.015, maxCycles: 4_000_000},
	{nodes: 56, protocol: "standard", scale: 0.002, maxCycles: 1_000_000}, // smoke
}

// serveConfig is one serve workload at one size.
type serveConfig struct {
	cluster bool
	// requests is the closed loop's fixed request count per round; every
	// coldEvery-th of them (placed by a seeded shuffle) is a cold job,
	// the rest hit one of hotSet configurations completed during set-up.
	requests  int
	coldEvery int
	hotSet    int
	// warmups are cold jobs run during set-up, so that connections and
	// agents are warm before timing starts.
	warmups int
	// cold is the template of every cold (and hot) job; its seed varies.
	cold server.JobSpec
}

// Two clients and two workers (or agents) match the two CPUs the
// benchmark was sized on; nproc is recorded beside every result.
const (
	clients  = 2
	workers  = 2
	revision = "comaperf"
)

var coldLocal = server.JobSpec{App: "mp3d", Nodes: 4, Protocol: "ecp", Instructions: 200_000, CheckpointHz: 400}
var coldCluster = server.JobSpec{App: "mp3d", Nodes: 4, Protocol: "ecp", Instructions: 20_000, CheckpointHz: 400}

var serveLocal = [2]serveConfig{
	{requests: 400, coldEvery: 10, hotSet: 8, cold: coldLocal},
	{requests: 60, coldEvery: 10, hotSet: 8, cold: coldLocal}, // smoke
}

var serveCluster = [2]serveConfig{
	{cluster: true, requests: 120, coldEvery: 1, warmups: 2, cold: coldCluster},
	{cluster: true, requests: 20, coldEvery: 1, warmups: 2, cold: coldCluster}, // smoke
}

// workload is one named entry of the benchmark.
type workload struct {
	name string
	why  string
	sim  *[2]simConfig
	srv  *[2]serveConfig
}

var workloads = []workload{
	{name: "sim-ecp", sim: &simECP,
		why: "the paper's full fault-tolerance path: recovery-point create/commit, injections, replication, rollback and reconfiguration"},
	{name: "sim-std", sim: &simSTD,
		why: "pure miss and mesh traffic at the paper's largest machine with the largest host heap; the control for checkpoint-path changes"},
	{name: "serve-local", srv: &serveLocal,
		why: "cold jobs load the receipt gate and scheduler/store, hot jobs only the cache path, so a cold-path gain that costs the hot path shows"},
	{name: "serve-cluster", srv: &serveCluster,
		why: "small jobs make the lease, heartbeat, complete and digest-recheck path of the cluster the main cost"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundMillis is the nominal length of one round's fixed work on the
// 2-CPU x86-64 host the sizes above were chosen on. Rounds are short so
// that a run holds many of them: on that host a round's throughput
// varies by several percent from round to round, and the median of ten
// varies far less.
const roundMillis = 1500

// rounds is how many rounds a run of -seconds measures: a fixed count
// for a given -seconds, never less than three so medians mean something.
func rounds(seconds int, smoke bool) int {
	if smoke {
		return 2
	}
	return max(3, seconds*1000/roundMillis)
}

// Seed streams: every seed the benchmark hands the simulator is derived
// from -seed, a stream and an index.
const (
	streamSim = iota + 1
	streamHot
	streamCold
	streamWarm
	streamOps
)

// deriveSeed mixes -seed, a stream and an index with splitmix64.
func deriveSeed(seed uint64, stream, i int) uint64 {
	z := seed + uint64(stream)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
