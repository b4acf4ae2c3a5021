package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenClusterPlanDeterministicAndValid(t *testing.T) {
	shape := ClusterShape{Nodes: 64, PerNode: 64}
	for seed := uint64(0); seed < 64; seed++ {
		a := GenClusterPlan(seed, shape, 1_000_000)
		b := GenClusterPlan(seed, shape, 1_000_000)
		if a.String() != b.String() {
			t.Fatalf("seed %d: plans diverge:\n%s\n%s", seed, a, b)
		}
		if err := a.Validate(shape); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
		if a.Empty() {
			t.Fatalf("seed %d: generated plan is empty", seed)
		}
	}
}

func TestGenClusterPlanCoversAllClasses(t *testing.T) {
	shape := ClusterShape{Nodes: 64, PerNode: 64}
	classes := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		classes[GenClusterPlan(seed, shape, 1_000_000).Class()] = true
	}
	for _, want := range []string{"node-crash", "link-degrade", "node-straggler", "phase-corrupt"} {
		if !classes[want] {
			t.Fatalf("64 seeds never produced class %q (got %v)", want, classes)
		}
	}
}

func TestClusterPlanValidate(t *testing.T) {
	shape := ClusterShape{Nodes: 4, PerNode: 8}
	bad := []*ClusterPlan{
		{Crashes: []NodeCrash{{Node: 4, AtTick: 0}}},
		{Crashes: []NodeCrash{{Node: 0, AtTick: -1}}},
		{LinkDegrades: []LinkDegrade{{Node: 0, Factor: 0.5}}},
		{Stragglers: []NodeStraggler{{Node: -1, Factor: 2}}},
		{Corruptions: []PhaseCorrupt{{Node: 0, Phase: 3}}},
		{Shape: ClusterShape{Nodes: 8, PerNode: 8}, Crashes: []NodeCrash{{Node: 0}}},
	}
	for i, pl := range bad {
		if err := pl.Validate(shape); err == nil {
			t.Fatalf("bad plan %d accepted: %s", i, pl)
		}
	}
	if err := (*ClusterPlan)(nil).Validate(shape); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

// TestClusterPlanRejectsUnrepresentableFactors: a link-degrade or
// node-straggler factor whose product with a makespan leaves the int64
// tick range used to pass Validate, and the armed run then panicked with
// "event posted into the past" (1e300), or ran to a makespan a quarter of
// the tick range (1e9 on a 4x8 all-reduce). Validate, SaveClusterPlan and
// LoadPlanFile now reject such a factor with an error wrapping
// ErrPlanRange that names the node and the factor.
func TestClusterPlanRejectsUnrepresentableFactors(t *testing.T) {
	shape := ClusterShape{Nodes: 4, PerNode: 8}
	for _, factor := range []float64{1e9, 1e300} {
		for _, pl := range []*ClusterPlan{
			{Name: "link-degrade", Shape: shape, LinkDegrades: []LinkDegrade{{Node: 1, Factor: factor}}},
			{Name: "node-straggler", Shape: shape, Stragglers: []NodeStraggler{{Node: 1, Factor: factor}}},
		} {
			want := fmt.Sprintf("%s node 1 has invalid factor %v", pl.Name, factor)
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrPlanRange) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s x%g: %s returned %v, want ErrPlanRange naming %q", pl.Name, factor, what, err, want)
				}
			}
			check("Validate", pl.Validate(shape))
			path := filepath.Join(t.TempDir(), "plan.json")
			check("SaveClusterPlan", SaveClusterPlan(path, pl))

			// The file an earlier SaveClusterPlan wrote: a valid checksum
			// over the factor.
			f := &PlanFile{FormatVersion: PlanFormatVersion, Cluster: pl}
			sum, err := f.checksum()
			if err != nil {
				t.Fatal(err)
			}
			f.Checksum = sum
			body, err := json.MarshalIndent(f, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = LoadPlanFile(path)
			check("LoadPlanFile", err)
		}
	}
	ceiling := &ClusterPlan{Shape: shape,
		LinkDegrades: []LinkDegrade{{Node: 0, Factor: maxClusterFactor}},
		Stragglers:   []NodeStraggler{{Node: 0, Factor: maxClusterFactor}}}
	if err := ceiling.Validate(shape); err != nil {
		t.Errorf("factors at the ceiling rejected: %v", err)
	}
}

func TestPlanFileRoundTrip(t *testing.T) {
	dir := t.TempDir()

	rank := GenPlan(7, 8, 2e-4)
	rankPath := filepath.Join(dir, "rank.json")
	if err := SavePlan(rankPath, rank, 8); err != nil {
		t.Fatal(err)
	}
	rf, err := LoadPlanFile(rankPath)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cluster != nil || rf.Rank == nil || rf.Ranks != 8 {
		t.Fatalf("rank file decoded wrong: %+v", rf)
	}
	if rf.Rank.String() != rank.String() {
		t.Fatalf("rank plan changed across round trip:\n%s\n%s", rf.Rank, rank)
	}

	cl := GenClusterPlan(7, ClusterShape{Nodes: 64, PerNode: 64}, 1_000_000)
	clPath := filepath.Join(dir, "cluster.json")
	if err := SaveClusterPlan(clPath, cl); err != nil {
		t.Fatal(err)
	}
	cf, err := LoadPlanFile(clPath)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Rank != nil || cf.Cluster == nil {
		t.Fatalf("cluster file decoded wrong: %+v", cf)
	}
	if cf.Cluster.String() != cl.String() {
		t.Fatalf("cluster plan changed across round trip:\n%s\n%s", cf.Cluster, cl)
	}
}

func TestPlanFileRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := SavePlan(path, GenPlan(3, 8, 2e-4), 8); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the body: the checksum must catch it.
	tampered := []byte(string(body))
	for i := range tampered {
		if tampered[i] == '8' {
			tampered[i] = '9'
			break
		}
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlanFile(path); !errors.Is(err, ErrPlanChecksum) {
		t.Fatalf("tampered file loaded: %v", err)
	}

	// Wrong version is a typed error too.
	if err := SavePlan(path, GenPlan(3, 8, 2e-4), 8); err != nil {
		t.Fatal(err)
	}
	body, _ = os.ReadFile(path)
	body = []byte(strings.Replace(string(body), `"format_version": 1`, `"format_version": 99`, 1))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlanFile(path); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("wrong-version file loaded: %v", err)
	}
}
