package coll

import (
	"testing"

	"yhccl/internal/dav"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

func TestReduceScatterDPMLCorrectAndDAV(t *testing.T) {
	p := 8
	n := int64(4096)
	m := runRS(t, topo.NodeA(), p, n, Options{}, ReduceScatterDPML)
	s := int64(p) * n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.DPMLReduceScatter(s, p); got != want {
		t.Errorf("DPML RS DAV = %d, want %d (s*(5p-1))", got, want)
	}
}

func TestReduceScatterRingCorrectAndDAV(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		runRS(t, topo.NodeA(), p, 1024, Options{}, ReduceScatterRing)
	}
	p := 8
	n := int64(4096)
	m := runRS(t, topo.NodeA(), p, n, Options{}, ReduceScatterRing)
	s := int64(p) * n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.RingReduceScatter(s, p); got != want {
		t.Errorf("ring RS DAV = %d, want %d (5s(p-1))", got, want)
	}
}

func TestReduceScatterRabenseifnerCorrectAndDAV(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		runRS(t, topo.NodeA(), p, 512, Options{}, ReduceScatterRabenseifner)
	}
	// Non-power-of-two falls back to ring and must stay correct.
	runRS(t, topo.NodeA(), 6, 512, Options{}, ReduceScatterRabenseifner)

	p := 8
	n := int64(4096)
	m := runRS(t, topo.NodeA(), p, n, Options{}, ReduceScatterRabenseifner)
	s := int64(p) * n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.RabenseifnerReduceScatter(s, p); got != want {
		t.Errorf("rabenseifner RS DAV = %d, want %d", got, want)
	}
}

// runAR runs an all-reduce algorithm with verification.
func runAR(t *testing.T, p int, n int64, o Options,
	alg func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options)) *mpi.Machine {
	t.Helper()
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		alg(r, r.World(), sb, rb, n, mpi.Sum, o)
		for j := int64(0); j < n; j += 37 {
			if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
				t.Errorf("p=%d n=%d rank %d rb[%d] = %v, want %v", p, n, r.ID(), j, got, want)
				return
			}
		}
	})
	return m
}

func TestAllreduceDPMLCorrectAndDAV(t *testing.T) {
	runAR(t, 3, 1000, Options{}, AllreduceDPML)
	p := 8
	n := int64(8192)
	m := runAR(t, p, n, Options{}, AllreduceDPML)
	s := n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.DPMLAllreduceImpl(s, p); got != want {
		t.Errorf("DPML AR DAV = %d, want %d (s*(7p-3))", got, want)
	}
}

func TestAllreduceRingCorrectAndDAV(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		runAR(t, p, 1000, Options{}, AllreduceRing)
	}
	runAR(t, 8, 5, Options{}, AllreduceRing) // empty tail blocks
	p := 8
	n := int64(8192)
	m := runAR(t, p, n, Options{}, AllreduceRing)
	s := n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.RingAllreduceImpl(s, p); got != want {
		t.Errorf("ring AR DAV = %d, want %d (7s(p-1)+2s)", got, want)
	}
}

func TestAllreduceRabenseifnerCorrectAndDAV(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		runAR(t, p, 1000, Options{}, AllreduceRabenseifner)
	}
	runAR(t, 6, 1000, Options{}, AllreduceRabenseifner) // fallback
	p := 8
	n := int64(8192)
	m := runAR(t, p, n, Options{}, AllreduceRabenseifner)
	s := n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.RabenseifnerAllreduceImpl(s, p); got != want {
		t.Errorf("rab AR DAV = %d, want %d", got, want)
	}
}

func TestReduceDPMLCorrect(t *testing.T) {
	p := 4
	n := int64(777)
	root := 2
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		ReduceDPML(r, r.World(), sb, rb, n, mpi.Sum, root, Options{})
		if r.ID() == root {
			for j := int64(0); j < n; j += 5 {
				if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
					t.Errorf("root rb[%d] = %v, want %v", j, got, want)
					return
				}
			}
		}
	})
}

func TestAllgatherRingCorrect(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		n := int64(600)
		m := mpi.NewMachine(topo.NodeA(), p, true)
		m.MustRun(func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", int64(p)*n)
			r.FillPattern(sb, float64(r.ID()*100000))
			AllgatherRing(r, r.World(), sb, rb, n, Options{})
			for b := 0; b < p; b++ {
				for j := int64(0); j < n; j += 97 {
					want := float64(b*100000) + float64(j)
					if got := rb.Slice(int64(b)*n+j, 1)[0]; got != want {
						t.Errorf("p=%d rank %d rb[%d][%d] = %v, want %v", p, r.ID(), b, j, got, want)
						return
					}
				}
			}
		})
	}
}

func TestMABeatsBaselinesOnLargeMessages(t *testing.T) {
	// The headline claim (Fig. 9): socket-aware MA reduce-scatter clearly
	// outperforms DPML / Ring / Rabenseifner on large messages. 4 MB
	// message, NodeB p=48.
	n := int64(4 << 20 / memmodel.ElemSize) // per-rank block so total message = p*n... keep blocks modest
	n = 8192                                // block 64 KB -> message 3 MB on p=48
	p := 48
	time := func(alg func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options)) float64 {
		m := mpi.NewMachine(topo.NodeB(), p, false)
		return m.MustRun(func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", int64(p)*n)
			rb := r.NewBuffer("rb", n)
			alg(r, r.World(), sb, rb, n, mpi.Sum, Options{})
		})
	}
	tMA := time(ReduceScatterSocketMA)
	tDPML := time(ReduceScatterDPML)
	tRing := time(ReduceScatterRing)
	tRab := time(ReduceScatterRabenseifner)
	if tMA >= tDPML || tMA >= tRing || tMA >= tRab {
		t.Errorf("socket-MA %.4g should beat DPML %.4g, ring %.4g, rab %.4g",
			tMA, tDPML, tRing, tRab)
	}
}

// TestDPMLRunCounts pins the engine and residency-tracker work of one warm
// 4 MB DPML all-reduce on NodeA with 64 ranks. Its copy-in, block
// reduction and copy-out are runs of fused ops, each charged as one
// sim.Charge: the run-queue pops are exactly those of one park per
// sub-charge (the schedule did not change), while each rank's coroutine
// resumes a handful of times instead of once per op (97,977 resumes when
// every op was its own charge). The evictions, and those that had to
// binary-search their buffer's index, are the residency tracker's
// decisions, which a change to how it stores regions must keep. Each load
// or store positions its buffer's index once, so there is at most one
// seek per pop.
func TestDPMLRunCounts(t *testing.T) {
	const p = 64
	const n = int64(4<<20) / memmodel.ElemSize
	m := mpi.NewMachine(topo.NodeA(), p, false)
	body := func(r *mpi.Rank) {
		sb := r.PersistentBuffer("sb", n)
		rb := r.PersistentBuffer("rb", n)
		r.Warm(sb, 0, n)
		r.Warm(rb, 0, n)
		AllreduceDPML(r, r.World(), sb, rb, n, mpi.Sum, Options{})
	}
	m.MustRun(body)
	before := m.Model.TrackerCounts()
	m.MustRun(body)
	got := m.RunCounts()
	tc := m.Model.TrackerCounts().Sub(before)
	if got.Pops != 260182 {
		t.Errorf("%d run-queue pops, want 260182", got.Pops)
	}
	if got.Resumes > 8*p {
		t.Errorf("%d coroutine resumes, want at most %d (8 per rank)", got.Resumes, 8*p)
	}
	if tc.Evictions != 114182 || tc.SearchedEvictions != 41926 {
		t.Errorf("%d evictions, %d of them searched; want 114182 and 41926", tc.Evictions, tc.SearchedEvictions)
	}
	if tc.Seeks > int64(got.Pops) {
		t.Errorf("%d index seeks for %d run-queue pops, want at most one per pop", tc.Seeks, got.Pops)
	}
}
