package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// stat summarises one metric over several runs. Spread is the distance
// between the quartiles as a share of the median: the run-to-run noise a
// metric's bound in BENCHMARK.json must exceed.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarise(values []float64, unit string) stat {
	s := stat{Unit: unit, Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.Spread = math.Abs((s.Q3 - s.Q1) / s.Median)
	}
	return s
}

// summarised lists the metrics summarised over runs: those a run reports
// in its JSON line, and with tracing off the timing metrics as well, so
// that their spread can be read from untraced runs.
func summarised(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), timing...)
}

func (o outcome) value(name string, trace bool) float64 {
	if trace {
		return o.layer[name]
	}
	return o.e2e[name]
}

// summaries groups outcomes by workload and summarises each reported
// metric across that workload's runs, in workload order.
func summaries(all []outcome, trace bool) ([]string, map[string]map[string]stat) {
	var order []string
	by := make(map[string][]outcome)
	for _, o := range all {
		if _, ok := by[o.workload]; !ok {
			order = append(order, o.workload)
		}
		by[o.workload] = append(by[o.workload], o)
	}
	out := make(map[string]map[string]stat)
	for _, w := range order {
		out[w] = make(map[string]stat)
		for _, d := range summarised(trace) {
			var xs []float64
			for _, o := range by[w] {
				xs = append(xs, o.value(d.name, trace))
			}
			out[w][d.name] = summarise(xs, d.unit)
		}
	}
	return order, out
}

func printSummary(w io.Writer, all []outcome, trace bool) {
	order, sums := summaries(all, trace)
	fmt.Fprintf(w, "--- summary over runs (median, quartiles, spread = (q3-q1)/median)\n")
	for _, wl := range order {
		for _, d := range summarised(trace) {
			s := sums[wl][d.name]
			fmt.Fprintf(w, "%-14s %-28s %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%  %s\n",
				wl, d.name, s.Median, s.Q1, s.Q3, 100*s.Spread, d.unit)
		}
	}
}

// writeJSON saves every run's report and the per-metric summaries.
func writeJSON(path string, all []outcome, trace bool) error {
	type runDoc struct {
		Seed uint64 `json:"seed"`
		report
		Notes []string `json:"notes,omitempty"`
	}
	type workloadDoc struct {
		Runs    []runDoc        `json:"runs"`
		Summary map[string]stat `json:"summary"`
	}
	order, sums := summaries(all, trace)
	doc := struct {
		NProc      int                     `json:"nproc"`
		GOMAXPROCS int                     `json:"gomaxprocs"`
		GoVersion  string                  `json:"go_version"`
		Trace      bool                    `json:"trace"`
		Workloads  map[string]*workloadDoc `json:"workloads"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), trace, map[string]*workloadDoc{}}
	for _, wl := range order {
		doc.Workloads[wl] = &workloadDoc{Summary: sums[wl]}
	}
	for _, o := range all {
		wd := doc.Workloads[o.workload]
		wd.Runs = append(wd.Runs, runDoc{Seed: o.seed, report: o.rep, Notes: o.notes})
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
