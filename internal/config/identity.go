package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// RunIdentitySchema versions the canonical run-identity encoding. Bump it
// whenever a field is added, removed, renamed or reordered so that hashes
// of the old and new encodings can never collide silently; the golden
// test in identity_test.go pins the bytes of the current version.
const RunIdentitySchema = "coma-run/v1"

// RunIdentity is the canonical description of everything that determines
// a simulation's result. It is the single run-identity vocabulary of the
// repository: the experiment campaign memoises runs by Hash() (see
// internal/experiments) and the comad daemon uses the same Hash() as its
// content-addressed cache key, so a run computed by either is the run
// named by the other.
//
// The struct is pure data — no function, channel or map fields — so its
// canonical JSON encoding is total and deterministic: encoding/json
// emits struct fields in declaration order, and every field is a scalar,
// a struct of scalars, or a slice. Changing the declaration order IS a
// schema change and must bump RunIdentitySchema.
type RunIdentity struct {
	// Schema is the encoding version; CanonicalJSON fills it when empty.
	Schema string `json:"schema"`
	// Revision pins the simulator code that produced (or would produce)
	// the result — results are code-version-dependent, so a service
	// keying a persistent cache must include it. In-process memoisation
	// leaves it empty (one process runs one revision).
	Revision string `json:"revision,omitempty"`

	// Arch is the full architecture parameter set.
	Arch Arch `json:"arch"`

	// Protocol is the coherence protocol name ("standard" or "ecp";
	// kept a string so this package does not import internal/coherence).
	Protocol string `json:"protocol"`
	// NoReplicationReuse and NoSharedCKReads ablate the ECP's two
	// optimisations.
	NoReplicationReuse bool `json:"no_replication_reuse,omitempty"`
	NoSharedCKReads    bool `json:"no_shared_ck_reads,omitempty"`

	// App names a workload preset; Instructions is its absolute scaled
	// instruction budget (scaling is resolved before hashing so that
	// "mp3d at scale 0.01" and "mp3d rescaled to the same budget" are
	// the same run).
	App          string `json:"app"`
	Instructions int64  `json:"instructions"`

	// Seed makes the run deterministic; it is the whole point of the
	// cache that equal identities give byte-identical results.
	Seed uint64 `json:"seed"`

	// CheckpointHz is the recovery-point frequency (per simulated
	// second); CheckpointInterval, when non-zero, overrides it with an
	// explicit period in cycles.
	CheckpointHz       float64 `json:"checkpoint_hz,omitempty"`
	CheckpointInterval int64   `json:"checkpoint_interval,omitempty"`

	// Failures is the scripted failure schedule.
	Failures []FailureEvent `json:"failures,omitempty"`

	// Correctness machinery (it changes timing, so it is identity).
	Oracle     bool `json:"oracle,omitempty"`
	Strict     bool `json:"strict,omitempty"`
	Invariants bool `json:"invariants,omitempty"`

	// MaxCycles aborts runaway simulations.
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// FailureEvent is one scheduled node failure, in identity form.
type FailureEvent struct {
	At        int64 `json:"at"`
	Node      int   `json:"node"`
	Permanent bool  `json:"permanent,omitempty"`
}

// ParseFailure parses the command-line spelling of a failure,
// cycle:node[:perm]: a transient failure of node at cycle, or a
// permanent one when the third field is exactly "perm". Any other third
// field is an error, so a misspelt "permanent" is never run as a
// transient failure. Range checks are left to the run's validation.
func ParseFailure(v string) (FailureEvent, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 || len(parts) == 3 && parts[2] != "perm" {
		return FailureEvent{}, fmt.Errorf("want cycle:node[:perm], got %q", v)
	}
	at, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return FailureEvent{}, fmt.Errorf("bad cycle in %q: %w", v, err)
	}
	node, err := strconv.Atoi(parts[1])
	if err != nil {
		return FailureEvent{}, fmt.Errorf("bad node in %q: %w", v, err)
	}
	return FailureEvent{At: at, Node: node, Permanent: len(parts) == 3}, nil
}

// CanonicalJSON returns the canonical encoding of the identity: compact
// JSON with fields in declaration order and Schema defaulted. It panics
// on a marshalling error, which is unreachable for this pure-data struct
// (no cyclic, function or channel fields).
func (id RunIdentity) CanonicalJSON() []byte {
	if id.Schema == "" {
		id.Schema = RunIdentitySchema
	}
	b, err := json.Marshal(id)
	if err != nil {
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	return b
}

// Hash returns the content address of the run: the lowercase-hex SHA-256
// of the canonical JSON encoding. Two identities hash equal iff their
// canonical encodings are byte-equal.
func (id RunIdentity) Hash() string {
	sum := sha256.Sum256(id.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}
