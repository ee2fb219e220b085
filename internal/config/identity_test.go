package config

import (
	"strings"
	"testing"
)

// goldenIdentity is a fully-populated identity exercising every field
// class: the full Arch, protocol + options, workload, seed, checkpoint
// frequency, a failure schedule, correctness machinery and MaxCycles.
func goldenIdentity() RunIdentity {
	return RunIdentity{
		Arch:         KSR1(16),
		Protocol:     "ecp",
		App:          "mp3d",
		Instructions: 1_000_000,
		Seed:         1,
		CheckpointHz: 100,
		Failures:     []FailureEvent{{At: 500_000, Node: 3, Permanent: true}},
		Oracle:       true,
		MaxCycles:    1 << 40,
	}
}

// TestRunIdentityHashGolden pins the canonical encoding and its hash.
// If this test fails you changed the run-identity schema — a field was
// added, removed, renamed, reordered, or an Arch field changed. That
// invalidates every content-addressed cache entry and every recorded
// run key, so it must be deliberate: bump RunIdentitySchema and update
// the golden values here in the same change.
func TestRunIdentityHashGolden(t *testing.T) {
	const wantJSON = `{"schema":"coma-run/v1","arch":{"Nodes":16,"ClockHz":20000000,` +
		`"CacheSize":262144,"CacheLineSize":64,"CacheSectors":32,"CacheWays":8,` +
		`"AMSize":8388608,"PageSize":16384,"ItemSize":128,"AMWays":16,"AnchorFrames":4,` +
		`"CacheAccess":1,"AMAccess":18,"MemTransfer":20,"DirLookup":2,"NISend":4,` +
		`"NIRecv":4,"HopLatency":4,"FlitBytes":4,"CtrlMsgFlits":2,"MsgHeaderFlits":2,` +
		`"InjectAckDelay":5,"AMControllers":4,"CommitPageTest":1,"CommitItemTest":1,` +
		`"CacheFlushPerLine":4},"protocol":"ecp","app":"mp3d","instructions":1000000,` +
		`"seed":1,"checkpoint_hz":100,"failures":[{"at":500000,"node":3,"permanent":true}],` +
		`"oracle":true,"max_cycles":1099511627776}`
	const wantHash = "14f66847cd67b486e93bd4858649099d207e4165a2c36ca505cafad8cadbb2df"

	id := goldenIdentity()
	if got := string(id.CanonicalJSON()); got != wantJSON {
		t.Errorf("canonical JSON drifted:\n got %s\nwant %s", got, wantJSON)
	}
	if got := id.Hash(); got != wantHash {
		t.Errorf("Hash() = %s, want %s (run-identity schema drift: bump RunIdentitySchema)", got, wantHash)
	}
}

// TestRunIdentitySchemaDefaulted: an empty Schema field canonicalises to
// the current version, and an explicit one is preserved.
func TestRunIdentitySchemaDefaulted(t *testing.T) {
	id := goldenIdentity()
	if id.Schema != "" {
		t.Fatal("golden identity should leave Schema empty")
	}
	if !strings.Contains(string(id.CanonicalJSON()), `"schema":"`+RunIdentitySchema+`"`) {
		t.Error("empty Schema not defaulted in canonical encoding")
	}
	id.Schema = "coma-run/v0"
	if !strings.Contains(string(id.CanonicalJSON()), `"schema":"coma-run/v0"`) {
		t.Error("explicit Schema not preserved")
	}
	// Defaulting must not mutate the receiver.
	id2 := goldenIdentity()
	_ = id2.CanonicalJSON()
	if id2.Schema != "" {
		t.Error("CanonicalJSON mutated its receiver")
	}
}

// TestRunIdentityHashSensitivity: every identity-relevant mutation moves
// the hash, and hashing is stable across calls.
func TestRunIdentityHashSensitivity(t *testing.T) {
	base := goldenIdentity()
	if base.Hash() != base.Hash() {
		t.Fatal("Hash not stable")
	}
	mutations := map[string]func(*RunIdentity){
		"revision":            func(id *RunIdentity) { id.Revision = "abc123" },
		"arch nodes":          func(id *RunIdentity) { id.Arch = KSR1(30) },
		"arch preset":         func(id *RunIdentity) { id.Arch = Modern(16) },
		"protocol":            func(id *RunIdentity) { id.Protocol = "standard" },
		"opt replication":     func(id *RunIdentity) { id.NoReplicationReuse = true },
		"opt shared-ck":       func(id *RunIdentity) { id.NoSharedCKReads = true },
		"app":                 func(id *RunIdentity) { id.App = "water" },
		"instructions":        func(id *RunIdentity) { id.Instructions++ },
		"seed":                func(id *RunIdentity) { id.Seed++ },
		"checkpoint hz":       func(id *RunIdentity) { id.CheckpointHz = 400 },
		"checkpoint interval": func(id *RunIdentity) { id.CheckpointInterval = 12345 },
		"failure time":        func(id *RunIdentity) { id.Failures[0].At++ },
		"failure node":        func(id *RunIdentity) { id.Failures[0].Node++ },
		"failure permanence":  func(id *RunIdentity) { id.Failures[0].Permanent = false },
		"failure dropped":     func(id *RunIdentity) { id.Failures = nil },
		"oracle":              func(id *RunIdentity) { id.Oracle = false },
		"strict":              func(id *RunIdentity) { id.Strict = true },
		"invariants":          func(id *RunIdentity) { id.Invariants = true },
		"max cycles":          func(id *RunIdentity) { id.MaxCycles = 1 << 30 },
	}
	for name, mutate := range mutations {
		id := goldenIdentity()
		id.Failures = []FailureEvent{base.Failures[0]} // private copy
		mutate(&id)
		if id.Hash() == base.Hash() {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}
}

// TestParseFailure pins the cycle:node[:perm] spelling shared by the
// command-line tools: only a third field of exactly "perm" makes a
// failure permanent, and every other third field is refused.
func TestParseFailure(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    FailureEvent
		wantErr string
	}{
		{in: "20000:2", want: FailureEvent{At: 20000, Node: 2}},
		{in: "20000:2:perm", want: FailureEvent{At: 20000, Node: 2, Permanent: true}},
		{in: "-5:1", want: FailureEvent{At: -5, Node: 1}},
		{in: "20000:2:permanent", wantErr: `want cycle:node[:perm], got "20000:2:permanent"`},
		{in: "20000:2:", wantErr: `want cycle:node[:perm], got "20000:2:"`},
		{in: "20000:2:PERM", wantErr: `want cycle:node[:perm], got "20000:2:PERM"`},
		{in: "20000", wantErr: `want cycle:node[:perm], got "20000"`},
		{in: "1:2:perm:4", wantErr: `want cycle:node[:perm], got "1:2:perm:4"`},
		{in: "x:2", wantErr: `bad cycle in "x:2": strconv.ParseInt: parsing "x": invalid syntax`},
		{in: "20000:y", wantErr: `bad node in "20000:y": strconv.Atoi: parsing "y": invalid syntax`},
	} {
		got, err := ParseFailure(tc.in)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseFailure(%q) error = %v, want %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseFailure(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}
