package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// expectedSeed is the seed testdata/expected.json records outputs for.
const expectedSeed = 42

// expectedPath is where the expected outputs live, relative to the
// repository root the benchmark runs from.
const expectedPath = "perfbench/testdata/expected.json"

// expectedFile holds, per workload, every deterministic output of a pass at
// expectedSeed: per-point simulated makespans and memmodel counters,
// cluster makespans and event counts, serve event-log digests and the
// chaos and churn outcomes. It changes only through -write-expected.
type expectedFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadExpected(path string) (expectedFile, error) {
	var f expectedFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Seed != expectedSeed {
		return f, fmt.Errorf("%s records seed %d, want %d", path, f.Seed, expectedSeed)
	}
	return f, nil
}

// checkExpected compares one workload's outputs against the expected file
// and returns one problem line per differing, missing or unexpected key.
func checkExpected(f expectedFile, workload string, got map[string]string) []string {
	want, ok := f.Workloads[workload]
	if !ok {
		return []string{fmt.Sprintf("expected: no outputs recorded for %s (run with -write-expected)", workload)}
	}
	return diffRecords("expected", want, got)
}

// writeExpected replaces the recorded outputs of the given workloads and
// keeps those of the others.
func writeExpected(path string, outputs map[string]map[string]string) error {
	f, err := loadExpected(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = expectedFile{Seed: expectedSeed}, nil
	}
	if err != nil {
		return err
	}
	if f.Workloads == nil {
		f.Workloads = map[string]map[string]string{}
	}
	for w, recs := range outputs {
		f.Workloads[w] = recs
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
