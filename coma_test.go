package coma

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"coma/internal/server"
)

func quickCfg() Config {
	return Config{
		Nodes:        9,
		Protocol:     ECP,
		App:          Water(),
		Scale:        0.0005,
		CheckpointHz: 400,
		Seed:         1,
		Oracle:       true,
	}
}

func TestRunECP(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Protocol != "ecp" {
		t.Fatalf("result = %+v", res)
	}
}

// TestRunRejectsBadConfig: Run refuses what the daemon's validator
// refuses. The negative-frequency, negative-scale and negative-interval
// rows once ran to completion with no recovery point.
func TestRunRejectsBadConfig(t *testing.T) {
	small := func(edit func(*Config)) Config {
		app := Mp3d()
		app.Instructions = 200_000
		c := Config{Nodes: 4, Protocol: ECP, App: app}
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", func() Config { c := quickCfg(); c.Nodes = 0; return c }()},
		{"standard protocol with checkpointing", func() Config { c := quickCfg(); c.Protocol = Standard; return c }()},
		{"negative CheckpointHz", small(func(c *Config) { c.CheckpointHz = -5 })},
		{"negative Scale", small(func(c *Config) { c.Scale = -1 })},
		{"negative CheckpointInterval", small(func(c *Config) { c.CheckpointInterval = -7 })},
		{"more nodes than comad takes", small(func(c *Config) { c.Nodes = 257 })},
	} {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCompareDecomposes(t *testing.T) {
	cfg := quickCfg()
	cfg.Scale = 0.002
	cfg.CheckpointInterval = 40_000
	std, ecp, over, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if std.Protocol != "standard" || ecp.Protocol != "ecp" {
		t.Fatalf("protocols = %s / %s", std.Protocol, ecp.Protocol)
	}
	if over.TStandard != std.Cycles || over.TTotal != ecp.Cycles {
		t.Fatal("decomposition does not match the runs")
	}
	if over.TTotal <= over.TStandard {
		t.Fatal("ECP not slower than standard")
	}
	if sum := over.TStandard + over.TCreate + over.TCommit + over.TPollution; sum != over.TTotal {
		t.Fatalf("decomposition does not add up: %d != %d", sum, over.TTotal)
	}
}

func TestFailureRoundTrip(t *testing.T) {
	cfg := quickCfg()
	cfg.Nodes = 16
	cfg.Scale = 0.002
	cfg.CheckpointInterval = 30_000
	cfg.Invariants = true
	// Probe the run length, then fail a node mid-run.
	probe, err := Run(Config{Nodes: 16, Protocol: Standard, App: cfg.App,
		Scale: cfg.Scale, Seed: 1, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = []Failure{{At: probe.Cycles / 2, Node: 4, Permanent: true}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Ckpt.Recoveries)
	}
}

func TestAppPresets(t *testing.T) {
	if len(SplashApps()) != 4 {
		t.Fatal("missing SPLASH presets")
	}
	for _, name := range []string{"barnes", "cholesky", "mp3d", "water", "uniform", "private", "migratory"} {
		if _, ok := AppByName(name); !ok {
			t.Errorf("preset %q missing", name)
		}
	}
	if _, ok := AppByName("unknown"); ok {
		t.Error("unknown preset resolved")
	}
}

func TestFaultPlanBuilders(t *testing.T) {
	p := ExponentialFailures(1, 16, 100_000, 1_000_000, 0)
	if err := p.Validate(16); err != nil {
		t.Fatal(err)
	}
}

// TestRunIsTheDaemonRun: coma.Run and a comad job with the same
// parameters assemble the same machine (both through
// machine.FromIdentity), so their result payloads are byte-equal. Barnes
// at scale 0.0055 is the budget a second copy of the config-to-machine
// translation once computed one instruction short; the ECP case gives
// coma.Run its failures out of time order, which the daemon sorts. Run
// also refuses an App that is not a preset.
func TestRunIsTheDaemonRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		spec server.JobSpec
	}{
		{"barnes-standard",
			Config{Nodes: 9, Protocol: Standard, App: Barnes(), Scale: 0.0055, Seed: 1, Oracle: true},
			server.JobSpec{App: "barnes", Nodes: 9, Protocol: "standard", Scale: 0.0055, Seed: 1}},
		{"mp3d-ecp-failures",
			Config{Nodes: 9, Protocol: ECP, App: Mp3d(), Scale: 0.003, Seed: 1, Oracle: true, CheckpointHz: 400,
				Failures: []Failure{{At: 60_000, Node: 5, Permanent: true}, {At: 20_000, Node: 3}}},
			server.JobSpec{App: "mp3d", Nodes: 9, Protocol: "ecp", Scale: 0.003, Seed: 1, CheckpointHz: 400,
				Failures: []Failure{{At: 20_000, Node: 3}, {At: 60_000, Node: 5, Permanent: true}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, err := tc.spec.Identity("")
			if err != nil {
				t.Fatal(err)
			}
			daemon, err := server.SimRunner(id, server.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.cfg.Failures) > 0 && lib.Ckpt.Recoveries != int64(len(tc.cfg.Failures)) {
				t.Fatalf("rollbacks = %d, want %d", lib.Ckpt.Recoveries, len(tc.cfg.Failures))
			}
			a, err := server.MarshalResult(lib)
			if err != nil {
				t.Fatal(err)
			}
			b, err := server.MarshalResult(daemon)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				i := 0
				for i < min(len(a), len(b)) && a[i] == b[i] {
					i++
				}
				lo := max(0, i-60)
				t.Fatalf("coma.Run and the daemon disagree at byte %d:\n lib    …%s\n daemon …%s",
					i, a[lo:min(len(a), i+20)], b[lo:min(len(b), i+20)])
			}
		})
	}
	// A daemon names its workload by preset, so Run builds presets only:
	// an AppSpec differing from its named preset in anything but
	// Instructions is refused rather than silently run as the preset.
	cfg := quickCfg()
	cfg.App.Instructions /= 2
	if _, err := Run(cfg); err != nil {
		t.Fatalf("a preset with its own budget: %v", err)
	}
	for name, edit := range map[string]func(*AppSpec){
		"field":   func(a *AppSpec) { a.ReadFrac += 0.01 },
		"renamed": func(a *AppSpec) { a.Name = "water2" },
		"zero":    func(a *AppSpec) { *a = AppSpec{} },
	} {
		cfg := quickCfg()
		edit(&cfg.App)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "is not a preset") {
			t.Errorf("%s: Run error = %v, want a not-a-preset rejection", name, err)
		}
	}
}

func TestAblationOptionsRun(t *testing.T) {
	cfg := quickCfg()
	cfg.NoReplicationReuse = true
	cfg.NoSharedCKReads = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestModernArchRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.Modern = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClockHz != 100_000_000 {
		t.Fatalf("clock = %d", res.ClockHz)
	}
}

func TestDataLossSurfacesTypedError(t *testing.T) {
	// Killing two adjacent nodes simultaneously eventually destroys a
	// recovery pair; the typed error must be preserved through the
	// public API.
	var lossErr error
	for pair := 0; pair < 8 && lossErr == nil; pair++ {
		cfg := quickCfg()
		cfg.App = MigratoryKernel()
		cfg.Scale = 0.005
		cfg.CheckpointInterval = 30_000
		cfg.Failures = []Failure{
			{At: 120_000, Node: pair},
			{At: 120_000, Node: pair + 1},
		}
		if _, err := Run(cfg); err != nil {
			lossErr = err
		}
	}
	if lossErr == nil {
		t.Skip("no pair hit a recovery pair")
	}
	if !errors.Is(lossErr, ErrDataLoss) {
		t.Fatalf("err = %v", lossErr)
	}
}
