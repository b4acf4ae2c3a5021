package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
