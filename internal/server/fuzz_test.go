package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"coma/internal/config"
)

// FuzzJobSpec drives arbitrary POST /v1/jobs bodies through the
// handler's decode and canonicalisation path. Nothing on it may panic:
// a malformed or nonsensical spec is a 400, never a dropped connection.
// Any spec it accepts must name the same run after a marshal/unmarshal
// round trip, since the run hash is the daemon's cache key.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(specJSON(1)))
	f.Add([]byte(`{"app":"mp3d","nodes":4,"protocol":"ecp","hz":400,"scale":0.05,"seed":101}`))
	f.Add([]byte(`{"app":"mp3d","nodes":2,"protocol":"ecp","failures":[{"at":10,"node":1}]}`))
	f.Add([]byte(`{"app":"barnes","nodes":4,"protocol":"standard","instructions":1000,"modern":true}`))
	// Zero geometry must be a 400, not an integer divide in Arch.Validate.
	zeroPage, zeroCacheWays, zeroAMWays := config.KSR1(4), config.KSR1(4), config.KSR1(4)
	zeroPage.PageSize, zeroCacheWays.CacheWays, zeroAMWays.AMWays = 0, 0, 0
	for _, arch := range []config.Arch{config.KSR1(16), config.DSVM(4), zeroPage, zeroCacheWays, zeroAMWays} {
		spec, err := json.Marshal(SpecForIdentity(config.RunIdentity{
			Arch: arch, Protocol: "ecp", App: "water", Instructions: 5000,
			CheckpointInterval: 2048, Oracle: true,
		}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		id, err := spec.Identity("fuzz")
		if err != nil {
			return // rejected specs are out of scope
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding an accepted spec: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, raw)
		}
		id2, err := again.Identity("fuzz")
		if err != nil {
			t.Fatalf("re-encoded spec invalid: %v\n%s", err, raw)
		}
		if id.Hash() != id2.Hash() {
			t.Fatalf("round trip changed the run:\n in %s\nout %s", id.CanonicalJSON(), id2.CanonicalJSON())
		}
	})
}
