package memmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// fusedRun is the observable outcome of a multi-proc model workload.
type fusedRun struct {
	done      []string // "proc op clock" after every op, in completion order
	clocks    []float64
	counters  Counters
	occupancy []int64
	resumes   uint64
}

// chargeForm says how runFusedWorkload issues its ops.
type chargeForm int

const (
	// formRuns issues a drawn run as one Run and every other op as one Fuse.
	formRuns chargeForm = iota
	// formFused issues every op, a run's ops included, as one Fuse.
	formFused
	// formSplit issues every sub-charge as its own Load, Store or
	// ReduceFloor call.
	formSplit
)

// issue charges op in the given form (formRuns charges it as one Fuse).
func issue(m *Model, p *sim.Proc, core int, op Op, kind StoreKind, form chargeForm) {
	if form != formSplit {
		m.Fuse(p, core, op, kind, nil)
		return
	}
	switch op.Kind {
	case CopyOp:
		m.Load(p, core, op.A, op.AOff, op.N)
		m.Store(p, core, op.Dst, op.DOff, op.N, kind)
		return
	case AccumulateOp:
		m.Load(p, core, op.Dst, op.DOff, op.N)
		m.Load(p, core, op.A, op.AOff, op.N)
	case CombineOp:
		m.Load(p, core, op.A, op.AOff, op.N)
		m.Load(p, core, op.B, op.BOff, op.N)
	}
	m.Store(p, core, op.Dst, op.DOff, op.N, kind)
	m.ReduceFloor(p, op.N)
}

// runFusedWorkload drives seeded copies, accumulates, combines, floors and
// runs (1-4 sources folded in slices with ragged tails, or in one slice)
// from procs on both sockets of NodeA through shared, private and pinned
// buffers sized past the LLC, so sub-charges of different procs interleave
// in the same residency trackers, evict and write back. form says how the
// ops are issued. The model binds fewer ranks than there are procs, so the
// charge table also grows mid-run.
func runFusedWorkload(t *testing.T, seed int64, form chargeForm) fusedRun {
	t.Helper()
	node := topo.NodeA()
	cores := []int{0, 1, 2, 32, 33, 34, 3, 35}
	m := New(node, cores[:4])
	const elems = 1 << 23 // 64 MB per buffer
	shared := []*Buffer{
		m.NewBuffer("shm0", Shared, 0, elems, false),
		m.NewBuffer("shm1", Shared, 1, elems, false),
	}
	ring := m.NewBuffer("ring", Shared, 1, elems, false)
	ring.Pinned = true
	var out fusedRun
	e := sim.NewEngine()
	procs := make([]*sim.Proc, len(cores))
	for i, core := range cores {
		priv := m.NewBuffer(fmt.Sprintf("priv%d", i), Private, node.SocketOf(core), elems, false)
		bufs := []*Buffer{shared[0], shared[1], ring, priv}
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		procs[i] = e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for op := 0; op < 100; op++ {
				n := int64(1 + rng.Intn(1<<19))
				pick := func() (*Buffer, int64) {
					return bufs[rng.Intn(len(bufs))], rng.Int63n(elems - n + 1)
				}
				a, aOff := pick()
				b, bOff := pick()
				d, dOff := pick()
				kind := StoreKind(rng.Intn(2))
				switch rng.Intn(5) {
				case 0:
					issue(m, p, core, Op{Kind: CopyOp, Dst: d, DOff: dOff, A: a, AOff: aOff, N: n}, kind, form)
				case 1:
					issue(m, p, core, Op{Kind: AccumulateOp, Dst: d, DOff: dOff, A: a, AOff: aOff, N: n}, kind, form)
				case 2:
					issue(m, p, core, Op{Kind: CombineOp, Dst: d, DOff: dOff, A: a, AOff: aOff, B: b, BOff: bOff, N: n}, kind, form)
				case 3:
					m.ReduceFloor(p, n)
				case 4:
					srcs := make([]*Buffer, 1+rng.Intn(4))
					for j := range srcs {
						srcs[j] = bufs[rng.Intn(len(bufs))]
					}
					slice := n/int64(1+rng.Intn(6)) + rng.Int63n(3)
					if form == formRuns {
						m.Run(p, core, d, dOff, srcs, aOff, n, slice, kind, nil)
						break
					}
					for off := int64(0); off < n; off += slice {
						k := min(slice, n-off)
						if len(srcs) == 1 {
							issue(m, p, core, Op{Kind: CopyOp, Dst: d, DOff: dOff + off, A: srcs[0], AOff: aOff + off, N: k}, kind, form)
							continue
						}
						issue(m, p, core, Op{Kind: CombineOp, Dst: d, DOff: dOff + off, A: srcs[0], AOff: aOff + off, B: srcs[1], BOff: aOff + off, N: k}, kind, form)
						for _, s := range srcs[2:] {
							issue(m, p, core, Op{Kind: AccumulateOp, Dst: d, DOff: dOff + off, A: s, AOff: aOff + off, N: k}, kind, form)
						}
					}
				}
				out.done = append(out.done, fmt.Sprintf("%d %d %x", p.ID(), op, p.Now()))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		out.clocks = append(out.clocks, p.Now())
	}
	out.counters = m.Counters()
	for s := 0; s < node.Sockets; s++ {
		out.occupancy = append(out.occupancy, m.CacheOccupancy(s))
	}
	out.resumes = e.Counts().Resumes
	return out
}

// TestFusedOpsMatchSeparateCalls: a fused op is one charge whose
// sub-charges the engine may run after the proc parks, and a run is one
// charge of many fused ops; issuing the same sub-charges as one Fuse per
// op, or as separate single-op calls (one Advance each), must give
// bit-identical clocks, completion order, counters and residency.
func TestFusedOpsMatchSeparateCalls(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		split := runFusedWorkload(t, seed, formSplit)
		resumes := map[chargeForm]uint64{}
		for _, form := range []chargeForm{formRuns, formFused} {
			fused := runFusedWorkload(t, seed, form)
			resumes[form] = fused.resumes
			for i := range split.done {
				if fused.done[i] != split.done[i] {
					t.Fatalf("seed %d form %d: completion %d is %q, want %q", seed, form, i, fused.done[i], split.done[i])
				}
			}
			for i := range split.clocks {
				if fused.clocks[i] != split.clocks[i] {
					t.Fatalf("seed %d form %d: proc %d ended at %x, want %x", seed, form, i, fused.clocks[i], split.clocks[i])
				}
			}
			if fused.counters != split.counters {
				t.Fatalf("seed %d form %d: counters %+v, want %+v", seed, form, fused.counters, split.counters)
			}
			for s := range split.occupancy {
				if fused.occupancy[s] != split.occupancy[s] {
					t.Fatalf("seed %d form %d: socket %d occupancy %d, want %d", seed, form, s, fused.occupancy[s], split.occupancy[s])
				}
			}
			if fused.resumes >= split.resumes {
				t.Fatalf("seed %d form %d: %d resumes, split calls %d", seed, form, fused.resumes, split.resumes)
			}
		}
		if resumes[formRuns] >= resumes[formFused] {
			t.Fatalf("seed %d: runs resumed %d times, one Fuse per op %d", seed, resumes[formRuns], resumes[formFused])
		}
		if split.counters.WritebackBytes == 0 || split.counters.CrossSocketBytes == 0 {
			t.Fatalf("seed %d: workload never wrote back or crossed sockets: %+v", seed, split.counters)
		}
	}
}

// TestFusedOpsAllocateNothing: charge state lives in the model's per-proc
// slots, so fused ops and runs allocate nothing, including when the proc
// parks between sub-charges and the engine runs the rest.
func TestFusedOpsAllocateNothing(t *testing.T) {
	node := topo.NodeA()
	m := New(node, []int{0, 32})
	a := m.NewBuffer("a", Shared, 0, 1<<16, false)
	b := m.NewBuffer("b", Shared, 0, 1<<16, false)
	c := m.NewBuffer("c", Shared, 1, 1<<16, false)
	d := m.NewBuffer("d", Shared, 1, 1<<16, false)
	var run [4]*Buffer
	for i := range run {
		run[i] = m.NewBuffer(fmt.Sprint("run", i), Shared, i%2, 1<<16, false)
	}
	var allocs float64
	e := sim.NewEngine()
	e.Spawn("measured", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			m.Fuse(p, 0, Op{Kind: AccumulateOp, Dst: a, A: b, N: 4096}, Temporal, nil)
			m.Fuse(p, 0, Op{Kind: CombineOp, Dst: a, A: a, B: b, N: 4096}, Temporal, nil)
			m.Run(p, 0, run[0], 0, run[1:], 0, 4096, 1024, Temporal, nil)
		})
	})
	e.Spawn("peer", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			m.Fuse(p, 32, Op{Kind: CopyOp, Dst: d, A: c, N: 4096}, Temporal, nil)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("fused ops allocate %.1f times per run, want 0", allocs)
	}
}

// TestResidencySteadyStateAllocatesNothing alternates a whole-range copy
// with a 1000-element-sliced run over the first 4096 elements of two
// buffers. The copy and the run's ragged slices replace each other's
// regions, so indexes keep dropping their heads while inserts append to
// them. A head drop must keep the index's capacity for those inserts, so
// the steady state allocates nothing.
func TestResidencySteadyStateAllocatesNothing(t *testing.T) {
	m := New(topo.NodeA(), []int{0})
	src := m.NewBuffer("src", Shared, 0, 1<<16, false)
	dst := m.NewBuffer("dst", Shared, 0, 1<<16, false)
	srcs := []*Buffer{src}
	var allocs float64
	e := sim.NewEngine()
	e.Spawn("r", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			m.Fuse(p, 0, Op{Kind: CopyOp, Dst: dst, A: src, N: 4096}, Temporal, nil)
			m.Run(p, 0, dst, 0, srcs, 0, 4096, 1000, Temporal, nil)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state copies and runs allocate %.1f times per iteration, want 0", allocs)
	}
}
