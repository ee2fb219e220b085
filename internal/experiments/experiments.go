// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.2): the read-miss latency calibration (Table 2), the
// application characteristics (Table 3), the injection taxonomy
// (Table 1), the time-overhead decomposition against recovery-point
// frequency (Fig. 3) with replication throughput (Fig. 4), miss rates
// (Fig. 5) and injection counts (Fig. 6), the memory overhead (Fig. 7),
// and the processor-count scalability study (Figs. 8–11).
//
// Runs are memoised: the figures of one sweep share their underlying
// simulations. Absolute instruction counts are scaled by the parameter
// set (Quick/Bench/Full) — the paper's full SPLASH budgets are minutes of
// simulation per run; the scaled runs preserve the shapes (see
// EXPERIMENTS.md for measured-vs-paper values).
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/experiments/runner"
	"coma/internal/machine"
	"coma/internal/stats"
	"coma/internal/workload"
)

// Params scopes an experiment campaign.
type Params struct {
	// TargetInstructions rescales every application to about this many
	// total instructions (0 keeps the paper's full budgets).
	TargetInstructions int64
	// Nodes is the machine size for the frequency study (16, as in the
	// paper's Fig. 3–7 runs on a 4x4 mesh).
	Nodes int
	// Freqs are the recovery-point frequencies (per second) of the
	// frequency study. The paper sweeps 5–400.
	Freqs []float64
	// NodeSweep are the machine sizes of the scalability study
	// (9–56 in the paper).
	NodeSweep []int
	// SweepHz is the fixed frequency of the scalability study (100).
	SweepHz float64
	// Seed makes the campaign deterministic.
	Seed uint64
	// Apps are the workloads (the four Table 3 applications).
	Apps []workload.Spec
	// Progress, when non-nil, receives one line per simulation run.
	// Calls are serialised, but under a parallel campaign their order
	// follows worker scheduling, not render order.
	Progress func(msg string)
	// Workers bounds the number of simulations executed concurrently
	// (0 means GOMAXPROCS, or 16 with Remote set — remote runs wait on
	// I/O, not local CPU; 1 is strictly serial). The rendered tables
	// are byte-identical for every worker count: each run owns a
	// private sim.Engine and RNG streams derived only from the seed.
	Workers int
	// Remote, when non-nil, executes runs through an external service
	// (the comad daemon) instead of in-process: the suite hands it the
	// canonical identity of each distinct run and renders whatever
	// results come back. Identities are exactly the ones the daemon uses
	// as cache keys, so a campaign re-run against a warm daemon is
	// served entirely from its content-addressed store.
	Remote func(config.RunIdentity) (*stats.Run, error)
}

// Quick returns a laptop-scale campaign: runs long enough that even the
// lowest frequency establishes several recovery points, at roughly a
// tenth of the paper's instruction budgets.
func Quick() Params {
	return Params{
		TargetInstructions: 16_000_000,
		Nodes:              16,
		Freqs:              []float64{50, 100, 400},
		NodeSweep:          []int{9, 16, 30, 42, 56},
		SweepHz:            100,
		Seed:               1,
		Apps:               workload.Splash(),
	}
}

// Bench returns a very small campaign for the Go benchmark harness.
func Bench() Params {
	return Params{
		TargetInstructions: 1_600_000,
		Nodes:              16,
		Freqs:              []float64{200, 400},
		NodeSweep:          []int{9, 16, 30},
		SweepHz:            400,
		Seed:               1,
		Apps:               workload.Splash(),
	}
}

// Full returns the paper-scale campaign: full instruction budgets and the
// complete 5–400 frequency sweep. Expect minutes per simulation.
func Full() Params {
	return Params{
		TargetInstructions: 0,
		Nodes:              16,
		Freqs:              []float64{5, 25, 100, 400},
		NodeSweep:          []int{9, 16, 30, 42, 56},
		SweepHz:            100,
		Seed:               1,
		Apps:               workload.Splash(),
	}
}

// scaled rescales an application to the campaign's budget.
func (p Params) scaled(app workload.Spec) workload.Spec {
	if p.TargetInstructions <= 0 {
		return app
	}
	return app.Scale(float64(p.TargetInstructions) / float64(app.Instructions))
}

// runKey carries the parameters of one distinct simulation of a
// campaign. The memoisation key of the suite's worker pool is NOT this
// struct but the canonical config.RunIdentity hash derived from it (see
// Suite.identity): every figure that needs the same configuration shares
// one run, and the key it shares is byte-for-byte the key the comad
// daemon uses for its content-addressed result cache.
type runKey struct {
	app      string
	nodes    int
	hzMilli  int64
	protocol coherence.Protocol
	opts     coherence.Options
	modern   bool // the faster-processor architecture preset
}

// hz returns the recovery-point frequency the key encodes.
func (k runKey) hz() float64 { return float64(k.hzMilli) / 1000 }

// identity expands a run key into the repository-wide canonical run
// identity (internal/config): the only input execute hands to a run,
// local or remote.
func (s *Suite) identity(key runKey, app workload.Spec) config.RunIdentity {
	arch := config.KSR1(key.nodes)
	if key.modern {
		arch = config.Modern(key.nodes)
	}
	return config.RunIdentity{
		Arch:               arch,
		Protocol:           key.protocol.String(),
		NoReplicationReuse: key.opts.NoReplicationReuse,
		NoSharedCKReads:    key.opts.NoSharedCKReads,
		App:                app.Name,
		Instructions:       s.P.scaled(app).Instructions,
		Seed:               s.P.Seed,
		CheckpointHz:       key.hz(),
		Oracle:             true,
		MaxCycles:          machine.DefaultMaxCycles,
	}
}

// Suite memoises simulation runs across the experiment functions and
// executes them on a bounded worker pool (Params.Workers). Rendering is
// unchanged by parallelism: methods block until the runs they need are
// done, and every run is bit-identical to its serial execution.
type Suite struct {
	P    Params
	pool *runner.Pool[string, *stats.Run]

	progressMu sync.Mutex
}

// remoteDefaultWorkers is the submission fan-out used when Params.Remote
// is set and Workers is unspecified.
const remoteDefaultWorkers = 16

// NewSuite builds a suite for the parameters.
func NewSuite(p Params) *Suite {
	if p.Nodes == 0 {
		p = Quick()
	}
	workers := p.Workers
	if workers <= 0 {
		if p.Remote != nil {
			// Remote runs are I/O waits on the daemon, not local CPU:
			// fan submissions out well past GOMAXPROCS (which is 1 on a
			// small box and would serialise an entire cluster).
			workers = remoteDefaultWorkers
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	return &Suite{P: p, pool: runner.New[string, *stats.Run](workers)}
}

// Run simulates (or returns the memoised result of) one configuration.
func (s *Suite) Run(app workload.Spec, nodes int, hz float64,
	protocol coherence.Protocol, opts coherence.Options) (*stats.Run, error) {

	key := runKey{app.Name, nodes, int64(hz * 1000), protocol, opts, false}
	return s.pool.Get(s.identity(key, app).Hash(),
		func() (*stats.Run, error) { return s.execute(key, app) })
}

// start schedules one configuration on the worker pool without waiting
// (the planning path; see Plan).
func (s *Suite) start(app workload.Spec, nodes int, hz float64,
	protocol coherence.Protocol, opts coherence.Options, modern bool) {

	key := runKey{app.Name, nodes, int64(hz * 1000), protocol, opts, modern}
	s.pool.Start(s.identity(key, app).Hash(),
		func() (*stats.Run, error) { return s.execute(key, app) })
}

// execute performs one simulation. It runs on a pool worker; everything
// it touches is either private to the run (machine, engine, RNG
// streams) or synchronised (progress). With Params.Remote set the run
// is delegated to the external service instead.
func (s *Suite) execute(key runKey, app workload.Spec) (*stats.Run, error) {
	run, verb := s.P.Remote, "remote"
	if run == nil {
		run, verb = runLocal, "running"
	}
	s.progress(fmt.Sprintf("%s %s on %d nodes, %s, %g recovery points/s",
		verb, app.Name, key.nodes, key.protocol, key.hz()))
	r, err := run(s.identity(key, app))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%d/%s: %w", app.Name, key.nodes, key.protocol, err)
	}
	return r, nil
}

// runLocal simulates one identity in-process.
func runLocal(id config.RunIdentity) (*stats.Run, error) {
	m, err := machine.FromIdentity(id, nil)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

func (s *Suite) progress(msg string) {
	if s.P.Progress == nil {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.P.Progress(msg)
}

// std returns the standard-protocol baseline for an app and size.
func (s *Suite) std(app workload.Spec, nodes int) (*stats.Run, error) {
	return s.Run(app, nodes, 0, coherence.Standard, coherence.Options{})
}

// ecp returns an ECP run at a frequency.
func (s *Suite) ecp(app workload.Spec, nodes int, hz float64) (*stats.Run, error) {
	return s.Run(app, nodes, hz, coherence.ECP, coherence.Options{})
}

// modernRun returns a run on the faster-processor preset (the ablation's
// "modern arch" column), memoised and scheduled like every other run.
func (s *Suite) modernRun(app workload.Spec, hz float64, protocol coherence.Protocol) (*stats.Run, error) {
	key := runKey{app.Name, s.P.Nodes, int64(hz * 1000), protocol, coherence.Options{}, true}
	return s.pool.Get(s.identity(key, app).Hash(),
		func() (*stats.Run, error) { return s.execute(key, app) })
}
