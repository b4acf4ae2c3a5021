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
}

// runFusedWorkload drives seeded Copy/Accumulate/Combine/ReduceFloor ops
// from procs on both sockets of NodeA through shared, private and pinned
// buffers sized past the LLC, so sub-charges of different procs interleave
// in the same residency trackers, evict and write back. With split, every
// fused op is made as its separate Load/Store/ReduceFloor calls instead.
// The model binds fewer ranks than there are procs, so the charge table
// also grows mid-run.
func runFusedWorkload(t *testing.T, seed int64, split bool) fusedRun {
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
				switch rng.Intn(4) {
				case 0:
					if split {
						m.Load(p, core, a, aOff, n)
						m.Store(p, core, d, dOff, n, kind)
					} else {
						m.Copy(p, core, d, dOff, a, aOff, n, kind)
					}
				case 1:
					if split {
						m.Load(p, core, d, dOff, n)
						m.Load(p, core, a, aOff, n)
						m.Store(p, core, d, dOff, n, kind)
						m.ReduceFloor(p, n)
					} else {
						m.Accumulate(p, core, d, dOff, a, aOff, n, kind)
					}
				case 2:
					if split {
						m.Load(p, core, a, aOff, n)
						m.Load(p, core, b, bOff, n)
						m.Store(p, core, d, dOff, n, kind)
						m.ReduceFloor(p, n)
					} else {
						m.Combine(p, core, d, dOff, a, aOff, b, bOff, n, kind)
					}
				case 3:
					m.ReduceFloor(p, n)
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
	return out
}

// TestFusedOpsMatchSeparateCalls: a fused op is one charge whose
// sub-charges the engine may run after the proc parks; issuing the same
// sub-charges as separate single-op calls (one Advance each) must give
// bit-identical clocks, completion order, counters and residency.
func TestFusedOpsMatchSeparateCalls(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fused := runFusedWorkload(t, seed, false)
		split := runFusedWorkload(t, seed, true)
		for i := range split.done {
			if fused.done[i] != split.done[i] {
				t.Fatalf("seed %d: completion %d is %q, want %q", seed, i, fused.done[i], split.done[i])
			}
		}
		for i := range split.clocks {
			if fused.clocks[i] != split.clocks[i] {
				t.Fatalf("seed %d: proc %d ended at %x, want %x", seed, i, fused.clocks[i], split.clocks[i])
			}
		}
		if fused.counters != split.counters {
			t.Fatalf("seed %d: counters %+v, want %+v", seed, fused.counters, split.counters)
		}
		for s := range split.occupancy {
			if fused.occupancy[s] != split.occupancy[s] {
				t.Fatalf("seed %d: socket %d occupancy %d, want %d", seed, s, fused.occupancy[s], split.occupancy[s])
			}
		}
		if split.counters.WritebackBytes == 0 || split.counters.CrossSocketBytes == 0 {
			t.Fatalf("seed %d: workload never wrote back or crossed sockets: %+v", seed, split.counters)
		}
	}
}

// TestFusedOpsAllocateNothing: charge state lives in the model's per-proc
// slots, so fused ops allocate nothing, including when the proc parks
// between sub-charges and the engine runs the rest.
func TestFusedOpsAllocateNothing(t *testing.T) {
	node := topo.NodeA()
	m := New(node, []int{0, 32})
	a := m.NewBuffer("a", Shared, 0, 1<<16, false)
	b := m.NewBuffer("b", Shared, 0, 1<<16, false)
	c := m.NewBuffer("c", Shared, 1, 1<<16, false)
	d := m.NewBuffer("d", Shared, 1, 1<<16, false)
	var allocs float64
	e := sim.NewEngine()
	e.Spawn("measured", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			m.Accumulate(p, 0, a, 0, b, 0, 4096, Temporal)
			m.Combine(p, 0, a, 0, a, 0, b, 0, 4096, Temporal)
		})
	})
	e.Spawn("peer", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			m.Copy(p, 32, d, 0, c, 0, 4096, Temporal)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("fused ops allocate %.1f times per run, want 0", allocs)
	}
}
