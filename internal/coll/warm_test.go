package coll

import (
	"fmt"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// warmCase is one collective measured warm: sbN and rbN size its buffers
// for a message of n elements.
type warmCase struct {
	name     string
	sbN, rbN func(p, n int64) int64
	call     func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64)
}

func same(_, n int64) int64  { return n }
func block(p, n int64) int64 { return n / p }

var warmCases = []warmCase{
	{"allreduce/dpml", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceDPML(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"allreduce/ring", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceRing(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"allreduce/rabenseifner", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceRabenseifner(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"allreduce/2lvl", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceTwoLevel(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"reduce-scatter/2lvl", same, block, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceScatterTwoLevel(r, c, sb, rb, n/int64(c.Size()), mpi.Sum, Options{})
	}},
	{"reduce/2lvl", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceTwoLevel(r, c, sb, rb, n, mpi.Sum, 0, Options{})
	}},
	{"allreduce/ma", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceMA(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"reduce-scatter/ma", same, block, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceScatterMA(r, c, sb, rb, n/int64(c.Size()), mpi.Sum, Options{})
	}},
	{"reduce/ma", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceMA(r, c, sb, rb, n, mpi.Sum, 0, Options{})
	}},
	{"allreduce/socket-ma", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceSocketMA(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"reduce-scatter/socket-ma", same, block, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceScatterSocketMA(r, c, sb, rb, n/int64(c.Size()), mpi.Sum, Options{})
	}},
	{"reduce/socket-ma", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceSocketMA(r, c, sb, rb, n, mpi.Sum, 0, Options{})
	}},
	{"allreduce/rg", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		AllreduceRG(r, c, sb, rb, n, mpi.Sum, Options{})
	}},
	{"reduce/rg", same, same, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64) {
		ReduceRG(r, c, sb, rb, n, mpi.Sum, 0, Options{})
	}},
}

// TestWarmCallsAllocateNothing: a warm collective call finds every
// communicator resource it uses by key — segments and segment sets,
// flags, counters, p2p channels — so it formats no label, allocates
// nothing and creates no resource. The second call must create nothing;
// the calls after it are measured once each flag's waiter list has grown
// to the most waiters it sees, which takes a few calls where ranks wait
// on a flag they did not wait on in the first. Rank 0 measures with
// AllocsPerRun while the other ranks make the same calls; the count is
// process-wide, so it covers every rank's calls.
func TestWarmCallsAllocateNothing(t *testing.T) {
	const p, warmups, runs = 64, 4, 3
	for _, bytes := range []int64{8 << 10, 64 << 10} {
		n := bytes / memmodel.ElemSize
		for _, wc := range warmCases {
			t.Run(fmt.Sprintf("%s/%dKB", wc.name, bytes>>10), func(t *testing.T) {
				m := mpi.NewMachine(topo.NodeA(), p, true)
				measure := false
				var allocs float64
				body := func(r *mpi.Rank) {
					sb := r.PersistentBuffer("sb", wc.sbN(p, n))
					rb := r.PersistentBuffer("rb", wc.rbN(p, n))
					call := func() { wc.call(r, r.World(), sb, rb, n) }
					if !measure {
						call()
						return
					}
					for i := 0; i < warmups; i++ {
						call()
					}
					if r.ID() == 0 {
						allocs = testing.AllocsPerRun(runs, call)
						return
					}
					for i := 0; i < runs+1; i++ {
						call()
					}
				}
				m.MustRun(body)
				cold := m.CommResources()
				m.MustRun(body)
				if warm := m.CommResources(); warm != cold {
					t.Errorf("the second call created %d resources, want 0", warm-cold)
				}
				measure = true
				m.MustRun(body)
				if allocs != 0 {
					t.Errorf("a warm call allocates %.1f times, want 0", allocs)
				}
			})
		}
	}
}

// Ring and Rabenseifner all-reduces whose blocks, and so whose p2p
// messages, fall on either side of the 8192-element p2p chunk deliver the
// exact sum, as do messages that are not a multiple of p.
func TestRingAndRabenseifnerAroundTheChunk(t *testing.T) {
	const p = 4
	for _, n := range []int64{p * 8191, p * 8192, p * 8193, 32771, 5} {
		for _, alg := range []struct {
			name string
			f    ARFunc
		}{{"ring", AllreduceRing}, {"rabenseifner", AllreduceRabenseifner}} {
			m := mpi.NewMachine(topo.NodeA(), p, true)
			bases := SumBases(p)
			m.MustRun(func(r *mpi.Rank) {
				sb := r.NewBuffer("sb", n)
				rb := r.NewBuffer("rb", n)
				r.FillPattern(sb, bases[r.ID()])
				for call := 0; call < 2; call++ {
					alg.f(r, r.World(), sb, rb, n, mpi.Sum, Options{})
					if err := ValidateAllreduceSum(alg.name, r.ID(), rb, n, bases); err != nil {
						t.Errorf("n=%d call %d: %v", n, call, err)
					}
				}
			})
		}
	}
}
