package coll

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// Self-validating mode: every collective's output can be checked against a
// closed-form scalar reference, and a divergence is reported as *which
// rank's which chunk* went wrong — the difference between "the answer is
// off" and "rank 3's second 4 KB chunk holds a flipped bit".
//
// The references assume inputs produced by mpi.Rank.FillPattern: rank r's
// element i holds base(r) + i. Bases and counts used by the test and chaos
// suites keep every intermediate integer-valued and far below 2^53, so
// float64 reductions are exact regardless of combining order and the checks
// can use exact equality — any mismatch is a real defect or an injected
// fault, never rounding.

// ValidateChunkElems is the chunk granularity of divergence reports (4 KB
// of float64), matching the pipeline chunk scale the algorithms move data
// in, so a report localizes a fault to one copy/reduce step's worth of data.
const ValidateChunkElems = 512

// ValidationError pinpoints a diverging collective output.
type ValidationError struct {
	Op    string // which collective/algorithm was validated
	Rank  int    // whose output buffer diverged
	Chunk int    // index of the ValidateChunkElems-sized chunk
	Elem  int64  // absolute element index of the first divergence
	Got   float64
	Want  float64
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("coll: %s validation failed: rank%d chunk %d (elem %d): got %v, want %v",
		e.Op, e.Rank, e.Chunk, e.Elem, e.Got, e.Want)
}

// validateBuf checks data against ref element-wise, reporting the first
// divergence with chunk attribution.
func validateBuf(op string, rank int, data []float64, ref func(i int64) float64) error {
	for i := range data {
		if want := ref(int64(i)); data[i] != want {
			return &ValidationError{
				Op:    op,
				Rank:  rank,
				Chunk: i / ValidateChunkElems,
				Elem:  int64(i),
				Got:   data[i],
				Want:  want,
			}
		}
	}
	return nil
}

// SumBases returns the canonical FillPattern bases for a p-rank validated
// run: rank r's buffer is filled with base r*1000, keeping all sums exact
// in float64 for the message sizes the suites use.
func SumBases(p int) []float64 {
	bases := make([]float64, p)
	for i := range bases {
		bases[i] = float64(i * 1000)
	}
	return bases
}

// ValidateAllreduceSum checks an all-reduce(Sum) output: every rank's
// element i must equal sum_r(bases[r]) + p*i.
func ValidateAllreduceSum(op string, rank int, rb *memmodel.Buffer, n int64, bases []float64) error {
	if !rb.Real() {
		return nil
	}
	base := 0.0
	for _, b := range bases {
		base += b
	}
	p := float64(len(bases))
	return validateBuf(op, rank, rb.Slice(0, n), func(i int64) float64 {
		return base + p*float64(i)
	})
}

// ValidateReduceSum checks a rooted reduce(Sum): only the root's buffer
// holds the reduction; other ranks are skipped.
func ValidateReduceSum(op string, rank, root int, rb *memmodel.Buffer, n int64, bases []float64) error {
	if rank != root {
		return nil
	}
	return ValidateAllreduceSum(op, rank, rb, n, bases)
}

// ValidateReduceScatterSum checks a reduce-scatter(Sum) output: rank r's
// n-element block holds elements r*n..r*n+n-1 of the full reduction.
func ValidateReduceScatterSum(op string, rank int, rb *memmodel.Buffer, n int64, bases []float64) error {
	if !rb.Real() {
		return nil
	}
	base := 0.0
	for _, b := range bases {
		base += b
	}
	p := float64(len(bases))
	off := float64(int64(rank) * n)
	return validateBuf(op, rank, rb.Slice(0, n), func(i int64) float64 {
		return base + p*(off+float64(i))
	})
}

// ValidateBcast checks a broadcast output: every rank's element i must
// equal the root's fill base + i.
func ValidateBcast(op string, rank int, buf *memmodel.Buffer, n int64, rootBase float64) error {
	if !buf.Real() {
		return nil
	}
	return validateBuf(op, rank, buf.Slice(0, n), func(i int64) float64 {
		return rootBase + float64(i)
	})
}

// ValidateAllgather checks an all-gather output: block b of every rank's
// p*n-element buffer must hold rank b's n-element input, bases[b] + i.
func ValidateAllgather(op string, rank int, rb *memmodel.Buffer, n int64, bases []float64) error {
	if !rb.Real() {
		return nil
	}
	return validateBuf(op, rank, rb.Slice(0, int64(len(bases))*n), func(i int64) float64 {
		return bases[i/n] + float64(i%n)
	})
}

// validateReal checks the first n elements of a data-carrying buffer
// against ref; model-only buffers pass.
func validateReal(op string, rank int, buf *memmodel.Buffer, n int64, ref func(i int64) float64) error {
	if !buf.Real() {
		return nil
	}
	return validateBuf(op, rank, buf.Slice(0, n), ref)
}

// Fill writes rank r's input for Validate: bases[r] + i across its send
// buffer. Bcast and scatter read only the root's input, so the other ranks'
// send buffers are left as they are.
func (c Call) Fill(r *mpi.Rank, sb *memmodel.Buffer, bases []float64) {
	if (c.Coll == "bcast" || c.Coll == "scatter") && r.ID() != c.Root {
		return
	}
	r.FillPattern(sb, bases[r.ID()])
}

// Validate checks one rank's output of the call exactly, for a Sum run on
// inputs written by Fill (len(bases) is the rank count), and reports the
// first divergence as a *ValidationError labelled op. Model-only buffers
// pass.
func (c Call) Validate(op string, rank int, sb, rb *memmodel.Buffer, bases []float64) error {
	n, p := c.N, int64(len(bases))
	switch c.Coll {
	case "allreduce":
		return ValidateAllreduceSum(op, rank, rb, n, bases)
	case "reduce-scatter":
		return ValidateReduceScatterSum(op, rank, rb, n, bases)
	case "reduce":
		return ValidateReduceSum(op, rank, c.Root, rb, n, bases)
	case "bcast":
		return ValidateBcast(op, rank, sb, n, bases[c.Root])
	case "allgather":
		return ValidateAllgather(op, rank, rb, n, bases)
	case "gather":
		if rank != c.Root {
			return nil
		}
		return ValidateAllgather(op, rank, rb, n, bases)
	case "scatter":
		// Rank i receives block i of the root's input.
		off := bases[c.Root] + float64(int64(rank)*n)
		return validateReal(op, rank, rb, n, func(i int64) float64 { return off + float64(i) })
	case "alltoall":
		// Block j holds block `rank` of rank j's input.
		off := float64(int64(rank) * n)
		return validateReal(op, rank, rb, p*n, func(i int64) float64 { return bases[i/n] + off + float64(i%n) })
	case "scan":
		// Inclusive prefix over ranks 0..rank.
		base := 0.0
		for _, b := range bases[:rank+1] {
			base += b
		}
		k := float64(rank + 1)
		return validateReal(op, rank, rb, n, func(i int64) float64 { return base + k*float64(i) })
	}
	return fmt.Errorf("coll: unknown collective %q", c.Coll)
}
