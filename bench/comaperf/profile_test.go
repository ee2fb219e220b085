package main

import (
	"math"
	"testing"

	"coma/internal/server"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"coma/internal/server.(*Server).execute":                                           "coma/internal/server",
		"coma/internal/sim.(*Engine).RunUntil.func1":                                       "coma/internal/sim",
		"coma/internal/experiments/runner.(*Pool[go.shape.string,go.shape.struct {}]).run": "coma/internal/experiments/runner",
		"net/http.(*conn).serve":                                                           "net/http",
		"runtime.mallocgc":                                                                 "runtime",
		"slices.SortFunc[...]":                                                             "slices",
		"main.(*bench).simRound":                                                           "main",
		"encoding/json.Marshal":                                                            "encoding/json",
		"internal/poll.(*FD).Read":                                                         "internal/poll",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestAttributionRules(t *testing.T) {
	for _, c := range []struct {
		name    string
		stack   []string // leaf first
		layer   string
		handoff bool
	}{
		{"GC assist beats the calling package",
			[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "coma/internal/am.(*AM).Alloc"},
			"runtime_gc", false},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc", false},
		{"innermost repository frame takes the malloc it called",
			[]string{"runtime.mallocgc", "coma/internal/mesh.(*Network).Send", "coma/internal/coherence.(*Engine).dispatch", "coma/internal/sim.(*Engine).Run"},
			"mesh", false},
		{"json work is charged to its caller",
			[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "coma/internal/server.MarshalResult", "coma/internal/server.(*Server).execute"},
			"server", false},
		{"sim frame over a channel handoff",
			[]string{"runtime.futex", "runtime.chansend", "runtime.chansend1", "coma/internal/sim.(*Process).Wait", "coma/internal/node.(*Node).Run"},
			"sim", true},
		{"sim frame doing its own work",
			[]string{"coma/internal/sim.(*wheel).pop", "coma/internal/sim.(*Engine).RunUntil"}, "sim", false},
		{"loopback I/O without repository frames",
			[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"},
			"net_http", false},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched", false},
		{"anything else", []string{"runtime.memmove"}, "runtime_other", false},
		{"benchmark binary", []string{"main.(*bench).serveRound"}, "bench", false},
		{"inspection counts as machine", []string{"coma/internal/inspect.(*Controller).Check"}, "machine", false},
	} {
		layer, handoff := attribute(c.stack)
		if layer != c.layer || handoff != c.handoff {
			t.Errorf("%s: attribute = %s, handoff %v; want %s, %v", c.name, layer, handoff, c.layer, c.handoff)
		}
	}
}

// TestProfileOfSimRun profiles a small simulation in process, decodes
// the profile with the in-package reader and checks the attribution is
// a partition: shares sum to one, the kernel shows, and the server, which
// the run never enters, gets nothing.
func TestProfileOfSimRun(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a one-second simulation")
	}
	spec := server.JobSpec{App: "barnes", Nodes: 16, Protocol: "ecp", Scale: 0.01, CheckpointHz: 400, Seed: 7}
	id, err := spec.Identity("")
	if err != nil {
		t.Fatal(err)
	}
	m, err := server.BuildMachine(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := m.Run()
	gz := prof.stop()
	if runErr != nil {
		t.Fatal(runErr)
	}
	split := newCPUSplit()
	if err := split.addProfile(gz); err != nil {
		t.Fatal(err)
	}
	if split.samples < 10 {
		t.Fatalf("only %d samples", split.samples)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += split.share(l)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", sum)
	}
	if split.share("sim") <= 0 {
		t.Errorf("cpu.sim = %v, want > 0", split.share("sim"))
	}
	if got := split.share("server"); got != 0 {
		t.Errorf("cpu.server = %v, want 0", got)
	}
	if split.share("sim_handoff") > split.share("sim") {
		t.Errorf("sim_handoff %v exceeds sim %v", split.share("sim_handoff"), split.share("sim"))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("decodeProfile accepted non-gzip input")
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Fatal("eachField accepted a truncated bytes field")
	}
}
