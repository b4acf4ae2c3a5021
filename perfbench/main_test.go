package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fakeRun is a run of a workload that records value under one key per pass
// (values[i] on pass i, the last value after that).
func fakeRun(exp *expectedFile, values ...string) *wlRun {
	n := 0
	w := &workload{name: "fake", run: func(p *pass) {
		p.ops++
		p.record("point", values[min(n, len(values)-1)])
		p.sim = append(p.sim, 2e-6)
		n++
	}}
	return &wlRun{w: w, seed: expectedSeed, expected: exp}
}

// finish measures runs briefly and returns the exit code and the result
// line.
func finish(t *testing.T, runs ...*wlRun) (int, result) {
	t.Helper()
	measure(runs, 0)
	var values []map[string]float64
	for _, r := range runs {
		values = append(values, r.endToEnd())
	}
	var out bytes.Buffer
	code := summarize(runs, endToEnd, values, &out)
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("result line %q: %v", out.String(), err)
	}
	return code, res
}

func TestExpectedMismatchFails(t *testing.T) {
	exp := &expectedFile{Seed: expectedSeed, Workloads: map[string]map[string]string{"fake": {"point": "t=1"}}}

	code, res := finish(t, fakeRun(exp, "t=1"))
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted != 1+minPasses {
		t.Fatalf("matching outputs: exit %d, result %+v", code, res)
	}
	if got := res.Metrics["sim_time_us"]; !near(got.Value, 2) || got.Unit != "us" {
		t.Fatalf("sim_time_us = %+v, want 2 us", got)
	}

	code, res = finish(t, fakeRun(exp, "t=2"))
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("mismatching outputs: exit %d, result %+v", code, res)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 {
		t.Fatalf("failed fraction %v, want > 0", frac)
	}
}

func TestOutputsMustRepeatAcrossPasses(t *testing.T) {
	code, res := finish(t, fakeRun(nil, "t=1", "t=1", "t=3"))
	if code == 0 || res.Failed != minPasses-1 {
		t.Fatalf("exit %d, result %+v; want %d failed passes", code, res, minPasses-1)
	}
}

func TestExpectedFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "expected.json")
	if err := writeExpected(path, map[string]map[string]string{"a": {"k": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := writeExpected(path, map[string]map[string]string{"b": {"k": "2"}}); err != nil {
		t.Fatal(err)
	}
	f, err := loadExpected(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkExpected(f, "a", map[string]string{"k": "1"})) != 0 {
		t.Error("workload a lost its outputs when b was written")
	}
	if got := checkExpected(f, "b", map[string]string{"k": "2", "extra": "x"}); len(got) != 1 {
		t.Errorf("an unrecorded key gave %v, want one problem", got)
	}
	if got := checkExpected(f, "c", nil); len(got) != 1 {
		t.Errorf("an unrecorded workload gave %v, want one problem", got)
	}
}

// TestCheckedInExpectedCoversEveryWorkload keeps testdata/expected.json in
// step with the workloads.
func TestCheckedInExpectedCoversEveryWorkload(t *testing.T) {
	f, err := loadExpected(filepath.Join("testdata", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if len(f.Workloads[w]) == 0 {
			t.Errorf("no expected outputs for %s", w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the runs are judged
// by, in step with the workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	var e2e, layer []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metrics the traced run reports")
	}
}
