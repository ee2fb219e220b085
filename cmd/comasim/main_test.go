package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coma/internal/obs/receipt"
	"coma/internal/server"
)

// TestMain lets a test run the real command: with COMASIM_RUN_MAIN set
// the test binary is comasim itself, flags and all.
func TestMain(m *testing.M) {
	if os.Getenv("COMASIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// comasim runs the command with the given flags and fails the test on
// a non-zero exit.
func comasim(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "COMASIM_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("comasim %v: %v\n%s", args, err, out)
	}
}

// comasimExit runs the command and returns its exit code and output.
func comasimExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "COMASIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("comasim %v: %v", args, err)
	return 0, ""
}

func readReceipt(t *testing.T, path string) receipt.Receipt {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := receipt.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReceiptIgnoresObsFilter: a local receipt records the receipt
// mask whatever -obs-filter selects for the user's trace, so it matches
// the unfiltered receipt (and a daemon's), and the user's -trace-out
// keeps every kind it asked for.
func TestReceiptIgnoresObsFilter(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	run := []string{"-app", "mp3d", "-nodes", "4", "-protocol", "ecp", "-hz", "400", "-scale", "0.002"}
	with := func(extra ...string) []string { return append(append([]string(nil), run...), extra...) }

	comasim(t, with("-receipt-out", path("plain.json"), "-result-out", path("result.json"),
		"-receipt-trace-out", path("receipt.jsonl"), "-trace-out", path("plain.jsonl"))...)
	comasim(t, with("-obs-filter", "state", "-receipt-out", path("state.json"), "-trace-out", path("state.jsonl"))...)
	comasim(t, with("-obs-filter", "all", "-receipt-out", path("all.json"), "-trace-out", path("all.jsonl"))...)

	plain := readReceipt(t, path("plain.json"))
	if plain.VerdictLabel() != "ok" || plain.TraceDigest == "" {
		t.Fatalf("unfiltered receipt: verdict %s, trace digest %q", plain.VerdictLabel(), plain.TraceDigest)
	}
	result, err := os.ReadFile(path("result.json"))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path("receipt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Attest(receipt.Artifacts{Result: result, Trace: trace}, nil); err != nil {
		t.Fatalf("receipt does not attest against its -receipt-trace-out: %v", err)
	}

	// -obs-filter state once made the receipt replay a state-only trace
	// and report violations for a correct run.
	if state := readReceipt(t, path("state.json")); !bytes.Equal(state.CanonicalJSON(), plain.CanonicalJSON()) {
		t.Fatalf("-obs-filter state receipt differs from the unfiltered one:\n%s\n%s",
			state.CanonicalJSON(), plain.CanonicalJSON())
	}
	// -obs-filter all once digested the sampling kinds too.
	if all := readReceipt(t, path("all.json")); !bytes.Equal(all.CanonicalJSON(), plain.CanonicalJSON()) {
		t.Fatalf("-obs-filter all receipt differs from the unfiltered one:\n%s\n%s",
			all.CanonicalJSON(), plain.CanonicalJSON())
	}
	// -receipt-out once narrowed an unfiltered -trace-out to the
	// receipt mask, dropping every injection probe.
	userTrace, err := os.ReadFile(path("plain.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(userTrace, []byte(`"k":"inject-probe"`)); n == 0 {
		t.Fatal("-trace-out beside -receipt-out lost its inject-probe events")
	}
	stateTrace, err := os.ReadFile(path("state.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stateTrace, []byte(`"k":"txn-begin"`)) {
		t.Fatal("-obs-filter state trace holds txn events")
	}
}

// TestResultIsTheDaemonRun: comasim's result payload is the bytes the
// daemon's runner computes for the same identity. barnes at scale
// 0.0055 once ran one instruction longer in comasim than under comad.
func TestResultIsTheDaemonRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	comasim(t, "-app", "barnes", "-nodes", "9", "-protocol", "standard", "-scale", "0.0055", "-result-out", path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := server.JobSpec{App: "barnes", Nodes: 9, Protocol: "standard", Scale: 0.0055, Seed: 1}.Identity("")
	if err != nil {
		t.Fatal(err)
	}
	run, err := server.SimRunner(id, server.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := server.MarshalResult(run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("comasim result differs from the daemon run:\n got %s\nwant %s", got, want)
	}
}

// TestNegativeFailureTimeIsAUsageError: a failure before cycle 0 is a
// bad flag (exit 2), not an engine panic.
func TestNegativeFailureTimeIsAUsageError(t *testing.T) {
	code, out := comasimExit(t, "-scale", "0.001", "-fail", "-5:1")
	if code != 2 || strings.Contains(out, "panic") {
		t.Fatalf("comasim -fail -5:1: exit %d, want 2 without a panic:\n%s", code, out)
	}
}

// TestFailFlagSpellings runs comasim on every -fail spelling class: a
// transient failure rolls back, ":perm" kills the node for good (too
// few nodes remain at 4), and a malformed value, including a third
// field other than "perm", is a usage error before anything runs.
func TestFailFlagSpellings(t *testing.T) {
	run := []string{"-app", "mp3d", "-nodes", "4", "-protocol", "ecp", "-hz", "400", "-scale", "0.002"}
	for _, tc := range []struct {
		fail string
		exit int
		want string
	}{
		{"20000:2", 0, "1 rollbacks"},
		{"20000:2:perm", 1, "too few live nodes remain"},
		{"20000:2:permanent", 2, `invalid value "20000:2:permanent" for flag -fail: want cycle:node[:perm], got "20000:2:permanent"`},
		{"20000:2:", 2, `want cycle:node[:perm], got "20000:2:"`},
		{"20000", 2, `want cycle:node[:perm], got "20000"`},
		{"x:2", 2, `bad cycle in "x:2": strconv.ParseInt`},
		{"20000:y", 2, `bad node in "20000:y": strconv.Atoi`},
	} {
		code, out := comasimExit(t, append(append([]string(nil), run...), "-fail", tc.fail)...)
		if code != tc.exit || !strings.Contains(out, tc.want) {
			t.Errorf("-fail %s: exit %d, want %d with %q in\n%s", tc.fail, code, tc.exit, tc.want, out)
		}
	}
}

// TestReceiptTraceOutIsAllOrNothing: -receipt-trace-out streams into a
// temporary file beside its path and renames it only when the run and
// its receipt succeed. An unwritable path exits 1; a failed run exits
// 1 and leaves the directory empty; a good run leaves just the trace.
func TestReceiptTraceOutIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	run := []string{"-app", "mp3d", "-nodes", "4", "-protocol", "ecp", "-hz", "400", "-scale", "0.002"}
	with := func(extra ...string) []string { return append(append([]string(nil), run...), extra...) }
	entries := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	unwritable := filepath.Join(dir, "missing", "t.jsonl")
	if code, out := comasimExit(t, with("-receipt-trace-out", unwritable)...); code != 1 || !strings.Contains(out, "-receipt-trace-out") {
		t.Fatalf("-receipt-trace-out %s: exit %d, want 1 naming the flag:\n%s", unwritable, code, out)
	}
	if code, out := comasimExit(t, with("-fail", "20000:2:perm", "-receipt-trace-out", path)...); code != 1 {
		t.Fatalf("failed run: exit %d, want 1:\n%s", code, out)
	}
	if names := entries(); len(names) != 0 {
		t.Fatalf("failed run left %v behind", names)
	}
	comasim(t, with("-receipt-trace-out", path)...)
	if names := entries(); len(names) != 1 || names[0] != "t.jsonl" {
		t.Fatalf("good run left %v, want just t.jsonl", names)
	}
}
