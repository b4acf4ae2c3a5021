package coll

import (
	"errors"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// TestCallValidate runs every collective's default algorithm through Call on
// a real-data NodeA machine (p=4) and checks Validate both ways: the correct
// output passes on every rank, and with one output element changed it
// reports a *ValidationError naming that rank, chunk and element.
func TestCallValidate(t *testing.T) {
	const p, n = 4, 1100
	for _, collective := range []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather", "gather", "scatter", "alltoall", "scan"} {
		t.Run(collective, func(t *testing.T) {
			call := Call{Coll: collective, N: n, Root: 1}
			name, f, err := call.Bind(p)
			if err != nil {
				t.Fatal(err)
			}
			op := collective + "/" + name
			bases := SumBases(p)
			sbs := make([]*memmodel.Buffer, p)
			rbs := make([]*memmodel.Buffer, p)
			m := mpi.NewMachine(topo.NodeA(), p, true)
			m.MustRun(func(r *mpi.Rank) {
				sb, rb := call.Buffers(p, "", r.NewBuffer)
				call.Fill(r, sb, bases)
				f(r, r.World(), sb, rb)
				sbs[r.ID()], rbs[r.ID()] = sb, rb
			})
			for rank := 0; rank < p; rank++ {
				if err := call.Validate(op, rank, sbs[rank], rbs[rank], bases); err != nil {
					t.Fatalf("correct run rejected: %v", err)
				}
			}

			// Change one element of the last rank's output (the root's for
			// reduce and gather, whose other ranks hold none).
			rank := p - 1
			if collective == "reduce" || collective == "gather" {
				rank = call.Root
			}
			out := rbs[rank]
			if collective == "bcast" {
				out = sbs[rank]
			}
			elem := out.Elems - 3
			out.Slice(elem, 1)[0] += 0.5
			err = call.Validate(op, rank, sbs[rank], rbs[rank], bases)
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("changed output: Validate = %v, want a *ValidationError", err)
			}
			if ve.Op != op || ve.Rank != rank || ve.Elem != elem || ve.Chunk != int(elem/ValidateChunkElems) {
				t.Errorf("got %s rank %d chunk %d elem %d, want %s rank %d chunk %d elem %d",
					ve.Op, ve.Rank, ve.Chunk, ve.Elem, op, rank, elem/ValidateChunkElems, elem)
			}
		})
	}
}
