package fault

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenChurnPlanDeterministic(t *testing.T) {
	shape := ClusterShape{Nodes: 64, PerNode: 64}
	a := GenChurnPlan(7, shape, 1_000_000)
	b := GenChurnPlan(7, shape, 1_000_000)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if len(a.Crashes) != 1 || len(a.Heals) != 1 {
		t.Fatalf("churn plan shape: %s", a)
	}
	if a.Crashes[0].Node != a.Heals[0].Node {
		t.Fatalf("heal targets node %d, crash node %d", a.Heals[0].Node, a.Crashes[0].Node)
	}
	if err := a.Validate(shape); err != nil {
		t.Fatal(err)
	}
	if a.Class() != "node-crash" {
		t.Fatalf("churn plan class = %q, want node-crash (heals add no fault kind)", a.Class())
	}
	// Different seeds eventually pick different victims.
	other := GenChurnPlan(8, shape, 1_000_000)
	if other.String() == a.String() {
		t.Fatal("seeds 7 and 8 produced identical churn plans")
	}
}

func TestHealValidationTypedErrors(t *testing.T) {
	shape := ClusterShape{Nodes: 4, PerNode: 8}
	cases := []*ClusterPlan{
		{Name: "bad-node", Heals: []NodeHeal{{Node: 9, AtTick: 0}}},
		{Name: "bad-tick", Heals: []NodeHeal{{Node: 1, AtTick: -5}}},
		{Name: "bad-link", LinkHeals: []LinkHeal{{Node: -1, AtTick: 0}}},
	}
	for _, pl := range cases {
		err := pl.Validate(shape)
		if err == nil {
			t.Fatalf("%s: accepted", pl.Name)
		}
		if !errors.Is(err, ErrPlanRange) {
			t.Errorf("%s: error %v does not wrap ErrPlanRange", pl.Name, err)
		}
	}
	mismatch := &ClusterPlan{Name: "shape", Shape: ClusterShape{Nodes: 8, PerNode: 8},
		Crashes: []NodeCrash{{Node: 0}}}
	err := mismatch.Validate(shape)
	if !errors.Is(err, ErrPlanShape) {
		t.Errorf("shape mismatch error %v does not wrap ErrPlanShape", err)
	}
}

func TestRankPlanRangeTypedError(t *testing.T) {
	pl := &Plan{Name: "r", Corruptions: []Corruption{{Rank: 12}}}
	if err := pl.Validate(4); !errors.Is(err, ErrPlanRange) {
		t.Errorf("rank range error %v does not wrap ErrPlanRange", err)
	}
}

// Heal-free plans must keep the exact canonical JSON body they had before
// heals existed, so every previously saved plan file still loads with a
// matching checksum.
func TestHealFreePlanBodyUnchanged(t *testing.T) {
	pl := &ClusterPlan{Name: "old", Shape: ClusterShape{Nodes: 4, PerNode: 8},
		Crashes: []NodeCrash{{Node: 2, AtTick: 100}}}
	body, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "Heals") {
		t.Fatalf("heal-free plan body mentions heals: %s", body)
	}
}

func TestSaveLoadClusterPlanWithHeals(t *testing.T) {
	pl := GenChurnPlan(3, ClusterShape{Nodes: 8, PerNode: 16}, 500_000)
	path := filepath.Join(t.TempDir(), "churn.json")
	if err := SaveClusterPlan(path, pl); err != nil {
		t.Fatal(err)
	}
	f, err := LoadPlanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cluster == nil || len(f.Cluster.Heals) != 1 {
		t.Fatalf("loaded plan lost its heal: %+v", f.Cluster)
	}
	if f.Cluster.String() != pl.String() {
		t.Fatalf("round trip diverged:\n%s\n%s", f.Cluster, pl)
	}
}
