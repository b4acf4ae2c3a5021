package main

import (
	"strings"
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

func TestParseStraggler(t *testing.T) {
	const np = 8
	cases := []struct {
		name    string
		spec    string
		wantErr string // substring of the error; "" means the spec must parse
		rank    int
		factor  float64
	}{
		{name: "empty means no plan", spec: ""},
		{name: "valid", spec: "3:8", rank: 3, factor: 8},
		{name: "valid fractional factor", spec: "0:1.5", rank: 0, factor: 1.5},
		{name: "valid last rank", spec: "7:2", rank: 7, factor: 2},
		{name: "missing colon", spec: "3", wantErr: "want rank:factor"},
		{name: "non-numeric rank", spec: "x:8", wantErr: `bad -straggler rank "x"`},
		{name: "non-numeric factor", spec: "3:y", wantErr: `bad -straggler factor "y"`},
		{name: "negative rank", spec: "-1:8", wantErr: "outside 0..7"},
		{name: "rank == np", spec: "8:8", wantErr: "outside 0..7"},
		{name: "rank way out of range", spec: "100:8", wantErr: "outside 0..7"},
		{name: "zero factor", spec: "3:0", wantErr: "must be positive and finite"},
		{name: "negative factor", spec: "3:-2", wantErr: "must be positive and finite"},
		{name: "NaN factor", spec: "3:NaN", wantErr: "must be positive and finite"},
		{name: "Inf factor", spec: "3:+Inf", wantErr: "must be positive and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := parseStraggler(tc.spec, np)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseStraggler(%q, %d) = %+v, want error containing %q",
						tc.spec, np, pl, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseStraggler(%q, %d): %v", tc.spec, np, err)
			}
			if tc.spec == "" {
				if pl != nil {
					t.Fatalf("empty spec produced plan %+v", pl)
				}
				return
			}
			if len(pl.Stragglers) != 1 {
				t.Fatalf("plan has %d stragglers, want 1", len(pl.Stragglers))
			}
			s := pl.Stragglers[0]
			if s.Rank != tc.rank || s.Factor != tc.factor {
				t.Errorf("got straggler %d:%v, want %d:%v", s.Rank, s.Factor, tc.rank, tc.factor)
			}
		})
	}
}

func TestParseStragglerRespectsNp(t *testing.T) {
	// The same spec is valid or not depending on np: rank 7 exists with
	// np=8 but not with np=4.
	if _, err := parseStraggler("7:8", 8); err != nil {
		t.Errorf("rank 7 rejected with np=8: %v", err)
	}
	if _, err := parseStraggler("7:8", 4); err == nil {
		t.Error("rank 7 accepted with np=4")
	}
}

// TestVerifyEveryAlgorithm runs the -c verification pass, which checks every
// output element of every rank, for each registry algorithm of all nine
// collectives on NodeA (np=8) and NodeB (np=6).
func TestVerifyEveryAlgorithm(t *testing.T) {
	for _, node := range []struct {
		name string
		np   int
	}{{"NodeA", 8}, {"NodeB", 6}} {
		n, err := topo.Preset(node.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, collective := range []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather", "gather", "scatter", "alltoall", "scan"} {
			algs := coll.Algorithms(collective)
			if len(algs) == 0 {
				t.Fatalf("%s: no algorithms", collective)
			}
			for _, alg := range algs {
				if err := verify(n, node.np, collective, alg); err != nil {
					t.Errorf("%s np=%d %s/%s: %v", node.name, node.np, collective, alg, err)
				}
			}
		}
	}
	if err := verify(topo.NodeA(), 4, "allreduce", "nope"); err == nil {
		t.Error("unknown algorithm verified")
	}
}
