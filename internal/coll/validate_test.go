package coll

import (
	"errors"
	"strings"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/topo"
)

func TestValidateAllreduceAcceptsCorrectRun(t *testing.T) {
	const p, n = 8, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	bases := SumBases(p)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		AllreduceRing(r, r.World(), sb, rb, n, mpi.Sum, Options{})
		if err := ValidateAllreduceSum("allreduce/ring", r.ID(), rb, n, bases); err != nil {
			t.Errorf("correct run rejected: %v", err)
		}
	})
}

func TestValidateReportsRankAndChunk(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	bases := SumBases(p)
	var verr error
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		AllreduceRing(r, r.World(), sb, rb, n, mpi.Sum, Options{})
		if r.ID() == 2 {
			// Sabotage one element in the third chunk of rank 2's output.
			rb.Slice(0, n)[2*ValidateChunkElems+7] += 1
		}
		if err := ValidateAllreduceSum("allreduce/ring", r.ID(), rb, n, bases); err != nil {
			verr = err
		}
	})
	var ve *ValidationError
	if !errors.As(verr, &ve) {
		t.Fatalf("got %v, want *ValidationError", verr)
	}
	if ve.Rank != 2 || ve.Chunk != 2 || ve.Elem != 2*ValidateChunkElems+7 {
		t.Errorf("divergence located at rank%d chunk%d elem%d, want rank2 chunk2 elem%d",
			ve.Rank, ve.Chunk, ve.Elem, 2*ValidateChunkElems+7)
	}
	for _, want := range []string{"rank2", "chunk 2", "allreduce/ring"} {
		if !strings.Contains(ve.Error(), want) {
			t.Errorf("message %q missing %q", ve.Error(), want)
		}
	}
}

func TestValidateCatchesInjectedCorruption(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	if err := m.SetFaultPlan(&fault.Plan{
		Name:        "flip",
		Corruptions: []fault.Corruption{{Rank: 1, SharedWrite: 0, Elem: 5, Bit: 51}},
	}); err != nil {
		t.Fatal(err)
	}
	bases := SumBases(p)
	var verrs []error
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		AllreduceRing(r, r.World(), sb, rb, n, mpi.Sum, Options{})
		if err := ValidateAllreduceSum("allreduce/ring", r.ID(), rb, n, bases); err != nil {
			verrs = append(verrs, err)
		}
	})
	if len(verrs) == 0 {
		t.Fatal("a mantissa flip on a staged chunk must corrupt some rank's output")
	}
	var ve *ValidationError
	if !errors.As(verrs[0], &ve) {
		t.Fatalf("got %v, want *ValidationError", verrs[0])
	}
	if len(m.Injector().Events()) == 0 {
		t.Error("injector did not log the flip")
	}
}

func TestValidateReduceScatterAndBcastAndAllgather(t *testing.T) {
	const p, n = 4, 2048
	bases := SumBases(p)

	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", int64(p)*n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		ReduceScatterRing(r, r.World(), sb, rb, n, mpi.Sum, Options{})
		if err := ValidateReduceScatterSum("rs/ring", r.ID(), rb, n, bases); err != nil {
			t.Errorf("reduce-scatter: %v", err)
		}
	})

	m2 := mpi.NewMachine(topo.NodeA(), p, true)
	m2.MustRun(func(r *mpi.Rank) {
		buf := r.NewBuffer("buf", n)
		if r.ID() == 0 {
			r.FillPattern(buf, 777)
		}
		BcastBinomial(r, r.World(), buf, n, 0, Options{})
		if err := ValidateBcast("bcast/binomial", r.ID(), buf, n, 777); err != nil {
			t.Errorf("bcast: %v", err)
		}
	})

	m3 := mpi.NewMachine(topo.NodeA(), p, true)
	m3.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", int64(p)*n)
		r.FillPattern(sb, bases[r.ID()])
		AllgatherRing(r, r.World(), sb, rb, n, Options{})
		if err := ValidateAllgather("ag/ring", r.ID(), rb, n, bases); err != nil {
			t.Errorf("allgather: %v", err)
		}
	})
}

func TestValidateReduceOnlyChecksRoot(t *testing.T) {
	const p, n = 4, 1024
	bases := SumBases(p)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		ReduceTwoLevel(r, r.World(), sb, rb, n, mpi.Sum, 0, Options{})
		// Non-root rb holds garbage; ValidateReduceSum must skip it.
		if err := ValidateReduceSum("reduce/two-level", r.ID(), 0, rb, n, bases); err != nil {
			t.Errorf("reduce: %v", err)
		}
	})
}

func TestInstrumentTagsOpForDiagnostics(t *testing.T) {
	const p, n = 4, 2048
	m := mpi.NewMachine(topo.NodeA(), p, true)
	if err := m.SetFaultPlan(&fault.Plan{
		Name:   "stall-mid-collective",
		Stalls: []fault.Stall{{Rank: 2, At: 1e-7}},
	}); err != nil {
		t.Fatal(err)
	}
	_, alg, err := Call{Coll: "allreduce", Params: plan.Params{Family: "ring"}, Resilient: true, N: n}.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	bases := SumBases(p)
	_, err = m.Run(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		alg(r, r.World(), sb, rb)
	})
	if err == nil {
		t.Fatal("expected the stalled run to fail")
	}
	var re *mpi.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *mpi.RunError", err)
	}
	diag := re.Diagnose()
	if !strings.Contains(diag, "allreduce/ring") {
		t.Errorf("diagnosis does not name the op:\n%s", diag)
	}
	if !strings.Contains(err.Error(), "rank2") {
		t.Errorf("victim not named: %v", err)
	}
}
