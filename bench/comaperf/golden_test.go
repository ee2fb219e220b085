package main

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"slices"
	"testing"

	"coma/internal/obs/receipt"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build's results")

// TestGolden pins, for seed 1, the digest of every sim run's canonical
// result at both sizes; the benchmark checks its runs against the same
// file. Regenerate only when a change is meant to alter simulated
// results:
//
//	go test ./comaperf -run Golden -update
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sim workload once at full size")
	}
	got := make(map[string]string)
	for _, w := range workloads {
		if w.sim == nil {
			continue
		}
		for size, smoke := range []bool{false, true} {
			ids, err := simIdentities(w.sim[size], 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				app := simApps[i]
				run, err := runSim(id, false, nil, app)
				if err != nil {
					t.Fatalf("%s %s: %v", w.name, app, err)
				}
				if len(id.Failures) > 0 {
					if err := checkFaults(id, run.res, run.alive); err != nil {
						t.Fatalf("%s %s: %v", w.name, app, err)
					}
				}
				got[goldenKey(w.name, app, smoke)] = receipt.Digest(run.payload)
			}
		}
	}
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %q", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, the runs %d", len(want), len(got))
	}
}
