package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the benchmark contract at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := bf.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s %s, program %s %s", i, e.Name, e.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := bf.PerLayer[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s %s, program %s %s", i, e.Name, e.Unit, d.name, d.unit)
		}
	}
}

// TestSmoke runs every workload scaled down, traced, and checks the
// output against BENCHMARK.json: each end-to-end metric is printed for
// each workload with its unit, each JSON line carries every per-layer
// metric, nothing failed, and the CPU shares partition the profile.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads (about 15 s)")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	bf := readBenchmarkFile(t)

	printed := make(map[string][]string) // "workload metric" -> remaining fields
	var reports []report
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var r report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad JSON line %q: %v", line, err)
			}
			reports = append(reports, r)
			continue
		}
		if f := strings.Fields(line); len(f) >= 3 {
			printed[f[0]+" "+f[1]] = f[2:]
		}
	}
	if len(reports) != len(bf.Workloads) {
		t.Fatalf("%d JSON lines for %d workloads", len(reports), len(bf.Workloads))
	}
	for i, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			f, ok := printed[w.Name+" "+m.Name]
			if !ok || len(f) < 2 || f[1] != m.Unit {
				t.Errorf("%s: %s not printed with unit %s (got %v)", w.Name, m.Name, m.Unit, f)
			}
		}
		if f := printed[w.Name+" error_rate"]; len(f) == 0 || f[0] != "0" {
			t.Errorf("%s: error_rate %v, want 0", w.Name, f)
		}
		r := reports[i]
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: report correct=%v failed=%d attempted=%d", w.Name, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(bf.PerLayer) {
			t.Errorf("%s: %d metrics in the JSON line, want the %d per-layer ones", w.Name, len(r.Metrics), len(bf.PerLayer))
		}
		sum := 0.0
		for _, m := range bf.PerLayer {
			v, ok := r.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s missing or not in %s: %+v", w.Name, m.Name, m.Unit, v)
			}
			if strings.HasPrefix(m.Name, "cpu.") && m.Name != "cpu.sim_handoff" {
				sum += v.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: CPU shares sum to %s, want 1 ± 0.01", w.Name, strconv.FormatFloat(sum, 'g', 6, 64))
		}
	}
}
