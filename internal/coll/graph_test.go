package coll

import (
	"math/rand"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/topo"
)

// runRSGraph executes a reduce-scatter DAG on real data and verifies the
// results element-exactly against the send/recv reference semantics.
func runRSGraph(t *testing.T, p int, n int64, g *plan.Graph, o Options) *mpi.Machine {
	t.Helper()
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", int64(p)*n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		ReduceScatterGraph(r, r.World(), g, sb, rb, n, mpi.Sum, o)
		for j := int64(0); j < n; j += 7 {
			want := expectSum(p, int64(r.ID())*n+j)
			if got := rb.Slice(j, 1)[0]; got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
	return m
}

func TestGraphExecutorReduceScatter(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6, 8} {
		for name, sched := range map[string]schedule.Schedule{
			"ma": schedule.MA(p), "dpml": schedule.DPML(p),
		} {
			g, err := plan.FromSchedule(sched)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, name, err)
			}
			runRSGraph(t, p, 600, g, Options{})
		}
	}
}

func TestGraphExecutorReduceScatterFanout(t *testing.T) {
	for _, pf := range [][2]int{{8, 2}, {8, 4}, {12, 3}, {9, 2}} {
		g, err := plan.FromSchedule(schedule.Fanout(pf[0], pf[1]))
		if err != nil {
			t.Fatalf("p=%d f=%d: %v", pf[0], pf[1], err)
		}
		runRSGraph(t, pf[0], 300, g, Options{})
	}
}

func TestGraphExecutorMultiChunk(t *testing.T) {
	g, err := plan.FromSchedule(schedule.MA(4))
	if err != nil {
		t.Fatal(err)
	}
	runRSGraph(t, 4, 2000, g, Options{SliceMaxBytes: 1024})
}

// The graph executor's measured copy volume and DAV must equal the graph's
// own closed-form prediction — the cross-check tying plan.Graph.DAVBytes to
// what actually runs — and the MA schedule must hit the 2s copy-volume
// optimum of Theorem 3.1.
func TestGraphExecutorDAVMatchesPrediction(t *testing.T) {
	p := 8
	n := int64(1024) // one chunk (8 KB block < default Imax)
	g, err := plan.FromSchedule(schedule.MA(p))
	if err != nil {
		t.Fatal(err)
	}
	m := runRSGraph(t, p, n, g, Options{})
	blockBytes := n * memmodel.ElemSize
	if got, want := m.Model.Counters().CopyVolume, g.CopyVolumeBytes(blockBytes); got != want {
		t.Errorf("measured copy volume %d, graph predicts %d", got, want)
	}
	if got, want := m.Model.Counters().DAV(), g.DAVBytes(blockBytes); got != want {
		t.Errorf("measured DAV %d, graph predicts %d", got, want)
	}
	s := int64(p) * blockBytes
	if got := m.Model.Counters().CopyVolume; got != 2*s {
		t.Errorf("MA copy volume = %d, want %d (2s)", got, 2*s)
	}
}

func TestGraphExecutorAllreduce(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int64{int64(p) * 100, int64(p)*100 + 37} { // even + ragged
			g, err := plan.AllreduceFromSchedule(schedule.MA(p))
			if err != nil {
				t.Fatal(err)
			}
			m := mpi.NewMachine(topo.NodeA(), p, true)
			m.MustRun(func(r *mpi.Rank) {
				sb := r.NewBuffer("sb", n)
				rb := r.NewBuffer("rb", n)
				r.FillPattern(sb, float64(r.ID()))
				AllreduceGraph(r, r.World(), g, sb, rb, n, mpi.Sum, Options{})
				for j := int64(0); j < n; j += 5 {
					want := expectSum(p, j)
					if got := rb.Slice(j, 1)[0]; got != want {
						t.Errorf("p=%d n=%d rank %d rb[%d] = %v, want %v", p, n, r.ID(), j, got, want)
						return
					}
				}
			})
		}
	}
}

func TestGraphExecutorAllreduceFanout(t *testing.T) {
	g, err := plan.AllreduceFromSchedule(schedule.Fanout(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := mpi.NewMachine(topo.NodeA(), 8, true)
	n := int64(777)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		AllreduceGraph(r, r.World(), g, sb, rb, n, mpi.Sum, Options{})
		for j := int64(0); j < n; j++ {
			if got, want := rb.Slice(j, 1)[0], expectSum(8, j); got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}

func TestGraphExecutorBcastAllgather(t *testing.T) {
	p, n := 6, int64(500)
	bg := plan.BcastGraph(p, 2)
	ag := plan.AllgatherGraph(p)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		buf := r.NewBuffer("buf", n)
		if r.ID() == 2 {
			r.FillPattern(buf, 3.5)
		}
		BcastGraphExec(r, r.World(), bg, buf, n, Options{})
		for j := int64(0); j < n; j += 3 {
			if got, want := buf.Slice(j, 1)[0], 3.5+float64(j); got != want {
				t.Errorf("bcast rank %d buf[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", int64(p)*n)
		r.FillPattern(sb, float64(r.ID())*10)
		AllgatherGraphExec(r, r.World(), ag, sb, rb, n, Options{})
		for b := int64(0); b < int64(p); b++ {
			for j := int64(0); j < n; j += 17 {
				if got, want := rb.Slice(b*n+j, 1)[0], float64(b)*10+float64(j); got != want {
					t.Errorf("allgather rank %d rb[%d] = %v, want %v", r.ID(), b*n+j, got, want)
					return
				}
			}
		}
	})
}

// randomSchedule builds a valid random schedule by the same recursive
// construction the exhaustive search uses.
func randomSchedule(rng *rand.Rand, p int) schedule.Schedule {
	s := make(schedule.Schedule, p)
	for i := 0; i < p; i++ {
		var tree schedule.Tree
		var pool []schedule.Operand
		for x := 0; x < p; x++ {
			pool = append(pool, schedule.Slice(x))
		}
		for j := 0; j < p-1; j++ {
			ai := rng.Intn(len(pool))
			a := pool[ai]
			pool = append(pool[:ai], pool[ai+1:]...)
			bi := rng.Intn(len(pool))
			b := pool[bi]
			pool = append(pool[:bi], pool[bi+1:]...)
			tree = append(tree, schedule.Node{R: rng.Intn(p), A: a, B: b})
			pool = append(pool, schedule.Ref(j))
		}
		// The final ref (root) is implicitly the result; drop it from pool
		// bookkeeping — Validate only requires non-root refs consumed.
		s[i] = tree
	}
	return s
}

// Property: any valid random schedule lowered through plan.FromSchedule
// still produces exact reduce-scatter results via the dataflow executor.
func TestGraphExecutorRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(5)
		sched := randomSchedule(rng, p)
		if err := sched.Validate(p); err != nil {
			t.Fatalf("seed %d: generator produced invalid schedule: %v", seed, err)
		}
		g, err := plan.FromSchedule(sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runRSGraph(t, p, 300, g, Options{})
	}
}

// Tuned dispatch falls back to the hand-tuned switch when no planner or no
// matching plan exists, and honors plan parameters when one does.
func TestTunedDispatchFallback(t *testing.T) {
	p, n := 4, int64(512)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	name, f, err := Call{Coll: "allreduce", Planner: PlannerOf(m), N: n}.Bind(p)
	if err != nil || name != "yhccl" {
		t.Fatalf("bound %q, %v; want the hand-tuned yhccl switch", name, err)
	}
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		f(r, r.World(), sb, rb)
		for j := int64(0); j < n; j += 3 {
			if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}

func TestTunedDispatchUsesPlan(t *testing.T) {
	p, n := 4, int64(512)
	s := n * memmodel.ElemSize
	tab, err := plan.NewTable([]plan.Plan{
		{Collective: "allreduce", Bucket: plan.Bucket(s), SizeBytes: s,
			Params: plan.Params{Family: "fanout", Fanout: 2}, Source: "searched"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(tab)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.SetTuning(pl)
	name, f, err := Call{Coll: "allreduce", Planner: PlannerOf(m), N: n}.Bind(p)
	if err != nil || name != "fanout" {
		t.Fatalf("bound %q, %v; want the plan's fanout", name, err)
	}
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		f(r, r.World(), sb, rb)
		for j := int64(0); j < n; j += 3 {
			if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}
