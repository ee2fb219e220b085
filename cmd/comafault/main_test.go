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

// TestFailFlagSpellings runs comafault on every -fail spelling class
// and on each invalid schedule. A valid spelling is scheduled with the
// kind it names; a malformed one, including a third field other than
// "perm", a node outside the machine, a negative cycle, an MTBF model
// with a negative -mtbf or -horizon or a -perm outside [0,1], no nodes,
// a negative -scale or -hz, and recovery points or failures on a
// machine too small for the ECP, exits 2 before anything is printed or
// run.
func TestFailFlagSpellings(t *testing.T) {
	run := []string{"-app", "mp3d", "-nodes", "4", "-hz", "400", "-scale", "0.002"}
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-fail", "20000:2"}, 0, "scheduled: node 2 fails (transient) at cycle 20000"},
		{[]string{"-fail", "20000:2:perm"}, 1, "scheduled: node 2 fails (permanent) at cycle 20000"},
		{[]string{"-fail", "20000:2:permanent"}, 2, `comafault: want cycle:node[:perm], got "20000:2:permanent"`},
		{[]string{"-fail", "20000:2:"}, 2, `comafault: want cycle:node[:perm], got "20000:2:"`},
		{[]string{"-fail", "20000"}, 2, `comafault: want cycle:node[:perm], got "20000"`},
		{[]string{"-fail", "x:2"}, 2, `comafault: bad cycle in "x:2": strconv.ParseInt`},
		{[]string{"-fail", "20000:y"}, 2, `comafault: bad node in "20000:y": strconv.Atoi`},
		{[]string{"-fail", "100:99"}, 2, "comafault: fault: event 0 names node n99 of 4"},
		{[]string{"-fail", "20000:1", "-fail", "100:4"}, 2, "comafault: fault: event 1 names node n4 of 4"},
		{[]string{"-fail", "-5:1"}, 2, "comafault: fault: event 0 at negative time -5"},
		{[]string{"-mtbf", "-1"}, 2, "comafault: -mtbf = -1, want a non-negative cycle count"},
		{[]string{"-mtbf", "50000", "-horizon", "-5"}, 2, "comafault: -horizon = -5, want a non-negative cycle count"},
		{[]string{"-mtbf", "50000", "-perm", "1.5"}, 2, "comafault: -perm = 1.5, want a fraction in [0,1]"},
		{[]string{"-mtbf", "50000", "-perm", "-0.1"}, 2, "comafault: -perm = -0.1, want a fraction in [0,1]"},
		{[]string{"-nodes", "0"}, 2, "comafault: -nodes = 0, want at least 1"},
		{[]string{"-nodes", "3", "-hz", "100"}, 2, "comafault: ECP recovery points and failures need at least 4 nodes, have 3"},
		{[]string{"-nodes", "3", "-fail", "100:1"}, 2, "comafault: ECP recovery points and failures need at least 4 nodes, have 3"},
		{[]string{"-nodes", "3", "-hz", "0", "-fail", "100:1"}, 2, "comafault: ECP recovery points and failures need at least 4 nodes, have 3"},
		{[]string{"-nodes", "3", "-hz", "0", "-mtbf", "50000"}, 2, "comafault: ECP recovery points and failures need at least 4 nodes, have 3"},
		{[]string{"-scale", "-1"}, 2, "comafault: -scale = -1, want a non-negative budget scale"},
		{[]string{"-hz", "-5"}, 2, "comafault: -hz = -5, want a non-negative frequency"},
	} {
		cmd := exec.Command(os.Args[0], append(append([]string(nil), run...), tc.args...)...)
		cmd.Env = append(os.Environ(), "COMAFAULT_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.exit || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: exit %d, want %d with %q in\n%s", tc.args, code, tc.exit, tc.want, out)
		}
		if code == 2 && strings.Count(string(out), "\n") != 1 {
			t.Errorf("%v: invalid input printed more than its error:\n%s", tc.args, out)
		}
	}
}
