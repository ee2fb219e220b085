package machine

import (
	"errors"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/proto"
	"coma/internal/stats"
	"coma/internal/workload"
)

// smallApp returns a quick deterministic workload for integration tests.
func smallApp(instr int64) workload.Spec {
	return workload.Spec{
		Name:            "test",
		Instructions:    instr,
		ReadFrac:        0.20,
		WriteFrac:       0.10,
		SharedReadFrac:  0.10,
		SharedWriteFrac: 0.05,
		SharedBytes:     64 << 10,
		PrivateBytes:    16 << 10,
		ReadOnlyFrac:    0.3,
		Locality:        0.4,
		HotBytes:        512,
		WindowBytes:     512,
		DriftInstr:      5_000,
		Barriers:        3,
	}
}

func runCfg(t *testing.T, cfg Config) *stats.Run {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func baseCfg(nodes int, p coherence.Protocol) Config {
	return Config{
		Arch:      config.KSR1(nodes),
		Protocol:  p,
		App:       smallApp(200_000),
		Seed:      1,
		Oracle:    true,
		MaxCycles: 500_000_000,
	}
}

func TestStandardProtocolRunsToCompletion(t *testing.T) {
	r := runCfg(t, baseCfg(16, coherence.Standard))
	if r.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	total := r.Total()
	if total.Instructions < 190_000 {
		t.Fatalf("instructions = %d", total.Instructions)
	}
	if total.References() == 0 || total.AMAccesses() == 0 {
		t.Fatal("no memory activity")
	}
	if r.Ckpt.Established != 0 {
		t.Fatal("standard protocol established recovery points")
	}
}

// probeCycles measures how long a configuration runs without failures or
// checkpointing, so tests can place failures and intervals inside the run
// regardless of workload-model tuning.
func probeCycles(t *testing.T, cfg Config) int64 {
	t.Helper()
	cfg.CheckpointHz = 0
	cfg.CheckpointInterval = 0
	cfg.Failures = nil
	cfg.Invariants = false
	cfg.Protocol = coherence.Standard
	return runCfg(t, cfg).Cycles
}

func TestECPEstablishesRecoveryPoints(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.CheckpointInterval = probeCycles(t, cfg) / 6
	cfg.Invariants = true
	r := runCfg(t, cfg)
	if r.Ckpt.Established < 2 {
		t.Fatalf("established = %d, want several", r.Ckpt.Established)
	}
	if r.Ckpt.CreateCycles <= 0 || r.Ckpt.CommitCycles <= 0 {
		t.Fatalf("phase accounting: create=%d commit=%d", r.Ckpt.CreateCycles, r.Ckpt.CommitCycles)
	}
	total := r.Total()
	if total.CkptItemsReplicated+total.CkptItemsReused == 0 {
		t.Fatal("no recovery data created")
	}
}

func TestECPOverheadIsPositiveButBounded(t *testing.T) {
	std := runCfg(t, baseCfg(16, coherence.Standard))
	ecp := baseCfg(16, coherence.ECP)
	ecp.CheckpointInterval = 25_000
	fr := runCfg(t, ecp)
	o := stats.Decompose(std, fr)
	if o.TTotal <= o.TStandard {
		t.Fatalf("ECP run (%d) not slower than standard (%d)", o.TTotal, o.TStandard)
	}
	if f := o.OverheadFraction(); f > 1.0 {
		t.Fatalf("overhead fraction = %.2f, absurdly high", f)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseCfg(9, coherence.ECP)
	cfg.CheckpointHz = 200
	a := runCfg(t, cfg)
	b := runCfg(t, cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.NetMessages != b.NetMessages {
		t.Fatalf("messages differ: %d vs %d", a.NetMessages, b.NetMessages)
	}
	ta, tb := a.Total(), b.Total()
	if ta != tb {
		t.Fatalf("counters differ:\n%+v\n%+v", ta, tb)
	}
}

func TestSeedChangesExecution(t *testing.T) {
	cfg := baseCfg(9, coherence.Standard)
	a := runCfg(t, cfg)
	cfg.Seed = 2
	b := runCfg(t, cfg)
	if a.Cycles == b.Cycles && a.NetMessages == b.NetMessages {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestStrictModeOracleOnHits(t *testing.T) {
	cfg := baseCfg(9, coherence.ECP)
	cfg.CheckpointHz = 400
	cfg.Strict = true
	cfg.App = smallApp(50_000)
	runCfg(t, cfg) // any oracle violation fails the run
}

func TestTransientFailureRecovers(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.App = smallApp(100_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 8
	cfg.Invariants = true
	cfg.Strict = true
	cfg.Failures = []config.FailureEvent{{At: span / 2, Node: 5, Permanent: false}}
	r := runCfg(t, cfg)
	if r.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", r.Ckpt.Recoveries)
	}
	if r.Ckpt.Established < 1 {
		t.Fatal("no recovery point was ever established")
	}
}

func TestPermanentFailureRecoversAndReconfigures(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.App = smallApp(100_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 8
	cfg.Invariants = true
	cfg.Failures = []config.FailureEvent{{At: span / 2, Node: 3, Permanent: true}}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", r.Ckpt.Recoveries)
	}
	if m.Coordinator().Alive(3) {
		t.Fatal("failed node still alive")
	}
	// Reconfiguration must have re-created recovery copies.
	reconf := int64(0)
	for _, n := range r.PerNode {
		reconf += n.Injections[proto.InjectReconfigure]
	}
	if reconf == 0 {
		t.Fatal("no reconfiguration injections")
	}
	// All surviving recovery pairs live on live nodes.
	if err := core.CheckQuiescent(m.Coherence()); err != nil {
		t.Fatal(err)
	}
}

// TestPermanentFailureAtOpenAppBarrier: with these seeds the permanent
// failure of node 11 lands just after the application barrier opened
// with node 11 among its arrivals. Unwinding node 11 out of AppBarrier
// must not retract an arrival from the barrier's next round: that left
// every later barrier one arrival short, and the live processors parked
// there until the cycle limit.
func TestPermanentFailureAtOpenAppBarrier(t *testing.T) {
	for _, seed := range []uint64{13783220647238773949, 1656655229111999995, 13335445792957863256} {
		cfg := Config{
			Arch:         config.KSR1(16),
			Protocol:     coherence.ECP,
			App:          workload.Mp3d().Scale(0.015),
			Seed:         seed,
			CheckpointHz: 400,
			Failures: []config.FailureEvent{
				{At: 83_000, Node: 5},
				{At: 145_000, Node: 11, Permanent: true},
			},
			Oracle:    true,
			MaxCycles: 4_000_000,
		}
		r := runCfg(t, cfg)
		if r.Ckpt.Recoveries != 2 {
			t.Fatalf("seed %d: recoveries = %d, want 2", seed, r.Ckpt.Recoveries)
		}
	}
}

func TestMultipleSequentialTransientFailures(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.App = smallApp(150_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 12
	cfg.Invariants = true
	cfg.Failures = []config.FailureEvent{
		{At: span / 4, Node: 2, Permanent: false},
		{At: span / 2, Node: 9, Permanent: false},
		{At: 3 * span / 4, Node: 2, Permanent: false}, // same node again
	}
	r := runCfg(t, cfg)
	if r.Ckpt.Recoveries != 3 {
		t.Fatalf("recoveries = %d, want 3", r.Ckpt.Recoveries)
	}
}

func TestFailureBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	cfg := baseCfg(9, coherence.ECP)
	cfg.App = smallApp(50_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = 100 * span // first establishment far in the future
	cfg.Invariants = true
	cfg.Failures = []config.FailureEvent{{At: span / 2, Node: 1, Permanent: false}}
	r := runCfg(t, cfg)
	if r.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", r.Ckpt.Recoveries)
	}
}

func TestSimultaneousFailuresMayLoseData(t *testing.T) {
	// Two nodes failing at the same instant can destroy both copies of
	// a recovery pair. With enough data this is near-certain; the
	// machine must detect it rather than continue silently.
	cfg := baseCfg(9, coherence.ECP)
	cfg.App = smallApp(150_000)
	cfg.App.SharedBytes = 256 << 10
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 10
	var failed error
	for pair := 0; pair < 8 && failed == nil; pair++ {
		cfg.Failures = []config.FailureEvent{
			{At: span / 2, Node: pair, Permanent: false},
			{At: span / 2, Node: pair + 1, Permanent: false},
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			failed = err
		}
	}
	if failed == nil {
		t.Skip("no adjacent pair held a recovery pair this run")
	}
	if !errors.Is(failed, ErrDataLoss) {
		t.Fatalf("error = %v, want ErrDataLoss", failed)
	}
}

// TestRecoveryEquivalence: rolling back and replaying must converge to
// the same final memory image as a failure-free run. Write values carry
// (node, sequence) stamps; the sequence counters are not rolled back, so
// exact values differ — but the set of written items and each item's
// final writer must match, because the generators replay the identical
// reference streams.
func TestRecoveryEquivalence(t *testing.T) {
	cfg := baseCfg(9, coherence.ECP)
	cfg.App = smallApp(120_000)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 10

	finalImage := func(failures []config.FailureEvent) map[proto.ItemID]proto.NodeID {
		mc := cfg
		mc.Failures = failures
		m, err := New(mc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		img := make(map[proto.ItemID]proto.NodeID, len(m.oracle))
		for item, value := range m.oracle {
			img[item] = proto.NodeID(value >> 48) // the writer node
		}
		return img
	}

	clean := finalImage(nil)
	failed := finalImage([]config.FailureEvent{{At: span / 2, Node: 4, Permanent: false}})
	if len(clean) != len(failed) {
		t.Fatalf("written-item sets differ: %d vs %d", len(clean), len(failed))
	}
	for item, writer := range clean {
		if failed[item] != writer {
			t.Fatalf("item %d: final writer %v with failure, %v without", item, failed[item], writer)
		}
	}
}

func TestStandardProtocolRejectsCheckpointing(t *testing.T) {
	cfg := baseCfg(4, coherence.Standard)
	cfg.CheckpointHz = 100
	if _, err := New(cfg); err == nil {
		t.Fatal("standard protocol accepted a checkpoint frequency")
	}
	cfg = baseCfg(4, coherence.Standard)
	cfg.Failures = []config.FailureEvent{{At: 10, Node: 1}}
	if _, err := New(cfg); err == nil {
		t.Fatal("standard protocol accepted a failure plan")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseCfg(4, coherence.ECP)
	cfg.Failures = []config.FailureEvent{{At: 10, Node: 7}}
	if _, err := New(cfg); err == nil {
		t.Fatal("failure plan with out-of-range node accepted")
	}
	cfg = baseCfg(4, coherence.ECP)
	cfg.App.Instructions = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid app spec accepted")
	}
	cfg = baseCfg(4, coherence.ECP)
	cfg.Arch.Nodes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid arch accepted")
	}
	// A failure before cycle 0 once panicked the event engine.
	cfg = baseCfg(4, coherence.ECP)
	cfg.Failures = []config.FailureEvent{{At: -5, Node: 1}}
	if _, err := New(cfg); err == nil {
		t.Fatal("failure plan at a negative cycle accepted")
	}
}

// TestFromIdentityRunsTheIdentityBudget: the machine an identity names
// executes exactly the identity's instruction budget. Rescaling the
// preset by the ratio of budgets once truncated barnes at scale 0.0055
// to one instruction fewer, so comad computed a different run than the
// one comasim had reported under the same identity.
func TestFromIdentityRunsTheIdentityBudget(t *testing.T) {
	id := config.RunIdentity{
		Arch:         config.KSR1(9),
		Protocol:     "standard",
		App:          "barnes",
		Instructions: workload.Barnes().Scale(0.0055).Instructions,
		Oracle:       true,
		MaxCycles:    DefaultMaxCycles,
	}
	if id.Instructions != 1_044_999 {
		t.Fatalf("barnes at scale 0.0055 budgets %d instructions, want 1044999", id.Instructions)
	}
	m, err := FromIdentity(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Total().Instructions; got != id.Instructions {
		t.Fatalf("ran %d instructions, identity names %d", got, id.Instructions)
	}
}

func TestScriptedWorkload(t *testing.T) {
	// Four nodes ping-ponging one item; validates the machine with
	// fully deterministic streams and checks the final value.
	gens := make([]workload.Generator, 4)
	for i := range gens {
		var refs []workload.Ref
		for k := 0; k < 10; k++ {
			refs = append(refs, workload.I(50), workload.R(0), workload.I(50), workload.W(0))
		}
		gens[i] = workload.NewScript("pingpong", refs)
	}
	cfg := Config{
		Arch:               config.KSR1(4),
		Protocol:           coherence.ECP,
		Generators:         gens,
		Oracle:             true,
		Strict:             true,
		CheckpointInterval: 20_000,
		MaxCycles:          50_000_000,
	}
	r := runCfg(t, cfg)
	total := r.Total()
	if total.Writes != 40 || total.Reads != 40 {
		t.Fatalf("refs = %d reads, %d writes", total.Reads, total.Writes)
	}
}

func TestMeshSizesRunECP(t *testing.T) {
	for _, nodes := range []int{4, 9, 30} {
		cfg := baseCfg(nodes, coherence.ECP)
		cfg.CheckpointHz = 400
		cfg.App = smallApp(30_000)
		r := runCfg(t, cfg)
		if r.Nodes != nodes {
			t.Fatalf("nodes = %d", r.Nodes)
		}
	}
	// Tiny machines still run without recovery points (plain ECP states
	// are never entered), and the standard protocol runs at any size.
	for _, nodes := range []int{1, 2} {
		cfg := baseCfg(nodes, coherence.Standard)
		cfg.App = smallApp(20_000)
		runCfg(t, cfg)
	}
	// ECP checkpointing on a too-small machine is rejected up front.
	cfg := baseCfg(2, coherence.ECP)
	cfg.CheckpointHz = 400
	if _, err := New(cfg); err == nil {
		t.Fatal("ECP checkpointing accepted on a 2-node machine")
	}
}

func TestPollutionInjectionsAppearUnderECP(t *testing.T) {
	cfg := baseCfg(16, coherence.ECP)
	cfg.CheckpointInterval = 5_000 // several establishments within the short run
	cfg.App = workload.MigratoryKernel().Scale(0.02)
	r := runCfg(t, cfg)
	if r.Ckpt.Established < 2 {
		t.Fatalf("established = %d; the run is too short to exercise pollution", r.Ckpt.Established)
	}
	total := r.Total()
	if total.InjectionsOnWrites() == 0 {
		t.Fatal("migratory workload caused no write-triggered injections under the ECP")
	}
}
