package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// reportOf builds a report holding the given ns/op per benchmark.
func reportOf(ns map[string]float64) report {
	r := report{Benchmarks: map[string]result{}}
	for name, v := range ns {
		r.Benchmarks[name] = result{NsPerOp: v}
	}
	return r
}

// writeBaseline saves r as a baseline JSON file and returns its path.
func writeBaseline(t *testing.T, r report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaselineSortedOrder: report lines and the regression list come
// out in name order, identically on every run, whatever the map order.
func TestCompareBaselineSortedOrder(t *testing.T) {
	names := []string{"zeta", "alpha", "mid", "beta", "omega", "gamma", "kappa", "delta"}
	base, fresh := map[string]float64{}, map[string]float64{}
	for _, n := range names {
		base[n], fresh[n] = 100, 200
	}
	path := writeBaseline(t, reportOf(base))
	sorted := slices.Sorted(slices.Values(names))
	var first string
	for run := 0; run < 20; run++ {
		var w bytes.Buffer
		err := compareBaseline(&w, path, 0.15, reportOf(fresh))
		if err == nil {
			t.Fatal("every benchmark twice as slow, yet no regression")
		}
		var lined []string
		for _, line := range strings.Split(strings.TrimSpace(w.String()), "\n") {
			lined = append(lined, strings.Fields(line)[1])
		}
		if !slices.Equal(lined, sorted) {
			t.Fatalf("report lines in order %v, want %v", lined, sorted)
		}
		var listed []string
		for _, reg := range strings.Split(strings.SplitN(err.Error(), ": ", 2)[1], "; ") {
			listed = append(listed, strings.Fields(reg)[0])
		}
		if !slices.Equal(listed, sorted) {
			t.Fatalf("regressions listed in order %v, want %v", listed, sorted)
		}
		out := w.String() + err.Error()
		if run == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d output differs:\n%s\nvs\n%s", run, out, first)
		}
	}
}

// TestCompareBaselineReportsOneSided: benchmarks on only one side are
// reported, fresh-only ones included, and neither fails the comparison.
func TestCompareBaselineReportsOneSided(t *testing.T) {
	path := writeBaseline(t, reportOf(map[string]float64{"event_post_pop": 100, "retired": 50}))
	var w bytes.Buffer
	err := compareBaseline(&w, path, 0.15, reportOf(map[string]float64{"event_post_pop": 100, "event_lockstep": 50}))
	if err != nil {
		t.Fatalf("one-sided benchmarks failed the comparison: %v", err)
	}
	for _, want := range []string{
		"compare: event_lockstep only in this run, no baseline",
		"compare: retired only in baseline, skipped",
	} {
		if !strings.Contains(w.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, w.String())
		}
	}
}

// TestCompareBaselineZeroBaseline: a baseline without a positive ns/op is
// skipped with a note instead of dividing to an infinite regression.
func TestCompareBaselineZeroBaseline(t *testing.T) {
	path := writeBaseline(t, reportOf(map[string]float64{"empty": 0, "ok": 100}))
	var w bytes.Buffer
	err := compareBaseline(&w, path, 0.15, reportOf(map[string]float64{"empty": 100, "ok": 100}))
	if err != nil {
		t.Fatalf("zero baseline failed the comparison: %v", err)
	}
	if !strings.Contains(w.String(), "compare: empty has no baseline ns/op, skipped") {
		t.Fatalf("zero baseline not reported:\n%s", w.String())
	}
	if strings.Contains(w.String(), "Inf") {
		t.Fatalf("report divides by the zero baseline:\n%s", w.String())
	}
}

// samplesOf builds one benchmark sample per ns/op value.
func samplesOf(ns ...float64) []testing.BenchmarkResult {
	out := make([]testing.BenchmarkResult, len(ns))
	for i, v := range ns {
		out[i] = testing.BenchmarkResult{N: 1, T: time.Duration(v), MemAllocs: uint64(i + 1), MemBytes: 100}
	}
	return out
}

// TestSummarizeMedianIQR pins the -count statistics: the median ns/op, the
// minimum, and the IQR by the exclusive quartile method (for 10 20 30 40
// 100 that is 15 and 70, as Python's statistics.quantiles gives).
func TestSummarizeMedianIQR(t *testing.T) {
	r := summarize(samplesOf(40, 10, 100, 30, 20))
	if r.NsPerOp != 30 || r.MinNsPerOp != 10 || r.IQRNsPerOp != 55 {
		t.Fatalf("median/min/iqr = %v/%v/%v, want 30/10/55", r.NsPerOp, r.MinNsPerOp, r.IQRNsPerOp)
	}
	if r.AllocsPerOp != 3 || r.BytesPerOp != 100 {
		t.Fatalf("allocs/bytes = %d/%d, want the medians 3/100", r.AllocsPerOp, r.BytesPerOp)
	}
	if even := summarize(samplesOf(10, 20, 30, 40)); even.NsPerOp != 25 || even.IQRNsPerOp != 25 {
		t.Fatalf("even count: median %v iqr %v, want 25 and 25", even.NsPerOp, even.IQRNsPerOp)
	}
}

// TestSummarizeSingleSampleOmitsSpread: -count 1 keeps the report as it
// was, with no min or IQR fields.
func TestSummarizeSingleSampleOmitsSpread(t *testing.T) {
	r := summarize(samplesOf(250))
	if r.NsPerOp != 250 || r.OpsPerSec != 4e6 {
		t.Fatalf("single sample summarized as %+v", r)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "min_ns_per_op") || strings.Contains(string(raw), "iqr_ns_per_op") {
		t.Fatalf("single-sample result carries spread fields: %s", raw)
	}
}

// TestRegressionLimitFromIQR pins the threshold: max(tolerance, 3 IQR /
// median) when the baseline has an IQR, the tolerance otherwise.
func TestRegressionLimitFromIQR(t *testing.T) {
	for _, tc := range []struct {
		base result
		want float64
	}{
		{result{NsPerOp: 100}, 0.15},
		{result{NsPerOp: 100, IQRNsPerOp: 2}, 0.15},
		{result{NsPerOp: 100, IQRNsPerOp: 10}, 0.30},
	} {
		if got := regressionLimit(tc.base, 0.15); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("limit for %+v = %v, want %v", tc.base, got, tc.want)
		}
	}
	base := report{Benchmarks: map[string]result{
		"noisy": {NsPerOp: 100, IQRNsPerOp: 10},
		"tight": {NsPerOp: 100},
	}}
	path := writeBaseline(t, base)
	var w bytes.Buffer
	if err := compareBaseline(&w, path, 0.15, reportOf(map[string]float64{"noisy": 125, "tight": 110})); err != nil {
		t.Fatalf("25%% on a 30%% limit failed the comparison: %v\n%s", err, w.String())
	}
	if !strings.Contains(w.String(), "limit 30.0% from the baseline IQR") {
		t.Fatalf("widened limit not reported:\n%s", w.String())
	}
	err := compareBaseline(&w, path, 0.15, reportOf(map[string]float64{"noisy": 135, "tight": 120}))
	if err == nil || !strings.Contains(err.Error(), "noisy 35.0% slower") || !strings.Contains(err.Error(), "tight 20.0% slower") {
		t.Fatalf("regressions beyond both limits not flagged: %v", err)
	}
}
