package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.1, 1}, {0.11, 2}, {1, 10},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		label  string
		want   float64
		enough bool
	}{
		{5, "p90", 5, false},   // too few for any percentile
		{99, "p90", 90, false}, // p90 would leave 9 beyond
		{100, "p90", 90, true}, // exactly 10 beyond p90
		{199, "p90", 180, true},
		{200, "p95", 190, true},
		{1000, "p99", 990, true},
		{9999, "p99", 9900, true}, // p99.9 would leave 9
		{10000, "p99.9", 9990, true},
	} {
		label, got, enough := tail(seq(c.n))
		if label != c.label || got != c.want || enough != c.enough {
			t.Errorf("n=%d: tail = %s %v (enough %v), want %s %v (%v)", c.n, label, got, enough, c.label, c.want, c.enough)
		}
	}
}

func TestTailCountsFailuresAsInfinite(t *testing.T) {
	xs := seq(200)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // 11 failed requests
	}
	label, got, _ := tail(xs)
	if label != "p95" || !math.IsInf(got, 1) {
		t.Fatalf("tail = %s %v, want p95 +Inf: 11 failures exceed the 10 samples beyond p95", label, got)
	}
	xs = seq(200)
	xs[0] = math.Inf(1)
	if _, got, _ := tail(xs); got != 191 {
		t.Fatalf("one failure: tail = %v, want 191 (the failure ranks last)", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 7}, 1.8125, 8.5},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 4, 8}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
