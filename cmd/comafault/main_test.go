package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the real command: with COMAFAULT_RUN_MAIN
// set the test binary is comafault itself, flags and all.
func TestMain(m *testing.M) {
	if os.Getenv("COMAFAULT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailFlagSpellings runs comafault on every -fail spelling class.
// A valid spelling is scheduled with the kind it names; a malformed
// one, including a third field other than "perm", exits 2 before
// anything runs.
func TestFailFlagSpellings(t *testing.T) {
	run := []string{"-app", "mp3d", "-nodes", "4", "-hz", "400", "-scale", "0.002"}
	for _, tc := range []struct {
		fail string
		exit int
		want string
	}{
		{"20000:2", 0, "scheduled: node 2 fails (transient) at cycle 20000"},
		{"20000:2:perm", 1, "scheduled: node 2 fails (permanent) at cycle 20000"},
		{"20000:2:permanent", 2, `comafault: want cycle:node[:perm], got "20000:2:permanent"`},
		{"20000:2:", 2, `comafault: want cycle:node[:perm], got "20000:2:"`},
		{"20000", 2, `comafault: want cycle:node[:perm], got "20000"`},
		{"x:2", 2, `comafault: bad cycle in "x:2": strconv.ParseInt`},
		{"20000:y", 2, `comafault: bad node in "20000:y": strconv.Atoi`},
	} {
		cmd := exec.Command(os.Args[0], append(append([]string(nil), run...), "-fail", tc.fail)...)
		cmd.Env = append(os.Environ(), "COMAFAULT_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("-fail %s: %v", tc.fail, err)
		}
		if code != tc.exit || !strings.Contains(string(out), tc.want) {
			t.Errorf("-fail %s: exit %d, want %d with %q in\n%s", tc.fail, code, tc.exit, tc.want, out)
		}
	}
}
