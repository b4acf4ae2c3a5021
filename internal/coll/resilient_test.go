package coll

import (
	"reflect"
	"testing"

	"yhccl/internal/plan"
)

func TestFallbackChainsResolveInRegistries(t *testing.T) {
	check := func(collective string, names []string, lookup func(string) bool) {
		for _, name := range names {
			if !lookup(name) {
				t.Errorf("%s fallback %q not in registry", collective, name)
			}
		}
	}
	check("allreduce", fallbacks["allreduce"], func(n string) bool { _, ok := AllreduceAlgos[n]; return ok })
	check("reduce-scatter", fallbacks["reduce-scatter"], func(n string) bool { _, ok := ReduceScatterAlgos[n]; return ok })
	check("reduce", fallbacks["reduce"], func(n string) bool { _, ok := ReduceAlgos[n]; return ok })
	check("bcast", fallbacks["bcast"], func(n string) bool { _, ok := BcastAlgos[n]; return ok })
	check("allgather", fallbacks["allgather"], func(n string) bool { _, ok := AllgatherAlgos[n]; return ok })
}

func TestFallbackChainShape(t *testing.T) {
	if got := FallbackChain("allreduce", "yhccl"); !reflect.DeepEqual(got, []string{"yhccl", "two-level", "ring"}) {
		t.Errorf("chain = %v", got)
	}
	// Primary duplicated in the fallback list is removed.
	if got := FallbackChain("allreduce", "ring"); !reflect.DeepEqual(got, []string{"ring", "two-level"}) {
		t.Errorf("chain = %v", got)
	}
	// Unknown collective: chain of just the primary.
	if got := FallbackChain("alltoall", "x"); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("chain = %v", got)
	}
	if MaxFallbackDepth("allreduce", "yhccl") != 2 {
		t.Errorf("max depth = %d", MaxFallbackDepth("allreduce", "yhccl"))
	}
}

func TestResilientDispatchByDepth(t *testing.T) {
	cases := []struct {
		depth int
		want  string
	}{
		{0, "yhccl"},
		{1, "two-level"},
		{2, "ring"},
		{9, "ring"}, // clamped to the most conservative
		{-1, "yhccl"},
	}
	for _, c := range cases {
		call := Call{Coll: "allreduce", Resilient: true, Options: Options{FallbackDepth: c.depth}}
		name, f, err := call.Bind(4)
		if err != nil {
			t.Fatalf("depth %d: %v", c.depth, err)
		}
		if name != c.want {
			t.Errorf("depth %d resolved %q, want %q", c.depth, name, c.want)
		}
		if f == nil {
			t.Errorf("depth %d: nil implementation", c.depth)
		}
	}
}

func TestResilientDispatchUnknownPrimary(t *testing.T) {
	nope := plan.Params{Family: "nope"}
	if _, _, err := (Call{Coll: "allreduce", Params: nope, Resilient: true}).Bind(4); err == nil {
		t.Error("unknown primary accepted")
	}
	// But a bad primary with depth pointing at a valid fallback still works:
	// the chain entry at that depth is what gets looked up.
	name, _, err := Call{Coll: "bcast", Params: nope, Resilient: true, Options: Options{FallbackDepth: 1}}.Bind(4)
	if err != nil || name != "binomial" {
		t.Errorf("depth-1 fallback for bad primary: name=%q err=%v", name, err)
	}
}

func TestSumBasesSalted(t *testing.T) {
	if !reflect.DeepEqual(SumBasesSalted(4, 0), SumBases(4)) {
		t.Error("salt 0 must reproduce SumBases exactly")
	}
	s1 := SumBasesSalted(4, 1)
	for i, b := range SumBases(4) {
		if s1[i] == b {
			t.Errorf("salt 1 base %d unchanged", i)
		}
		if s1[i] != b+17 {
			t.Errorf("salt 1 base %d = %v, want %v", i, s1[i], b+17)
		}
	}
}
