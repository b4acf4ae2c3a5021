package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/apps/miniamr"
	"yhccl/internal/cluster"
	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/determinism.golden and testdata/trace.golden from the current implementation")

// goldenCase is one collective execution whose simulated time and traffic
// counters are fingerprinted bit-for-bit.
type goldenCase struct {
	name  string
	bytes int64
	run   func(r *mpi.Rank, n int64)
}

// goldenFingerprint runs a fixed set of collectives on NodeA and returns
// one line per case: the simulated makespans of a cold and a warm
// iteration (hex float64, so every mantissa bit counts) plus every
// traffic counter. Any scheduler or residency-tracker change that alters
// simulated behavior in the slightest shows up here.
func goldenFingerprint(t testing.TB) string {
	t.Helper()
	node := topo.NodeA()
	const p = 16
	o := coll.Options{}
	cases := []goldenCase{
		{"allreduce-yhccl", 64 << 10, func(r *mpi.Rank, n int64) {
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n)
			r.Warm(sb, 0, n)
			coll.AllreduceYHCCL(r, r.World(), sb, rb, n, mpi.Sum, o)
		}},
		{"allreduce-yhccl-large", 16 << 20, func(r *mpi.Rank, n int64) {
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n)
			r.Warm(sb, 0, n)
			coll.AllreduceYHCCL(r, r.World(), sb, rb, n, mpi.Sum, o)
		}},
		{"allreduce-dpml", 2 << 20, func(r *mpi.Rank, n int64) {
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n)
			r.Warm(sb, 0, n)
			coll.AllreduceDPML(r, r.World(), sb, rb, n, mpi.Sum, o)
		}},
		{"allreduce-ring", 2 << 20, func(r *mpi.Rank, n int64) {
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n)
			r.Warm(sb, 0, n)
			coll.AllreduceRing(r, r.World(), sb, rb, n, mpi.Sum, o)
		}},
		{"reducescatter-yhccl", 8 << 20, func(r *mpi.Rank, n int64) {
			pp := int64(r.Size())
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n/pp+1)
			r.Warm(sb, 0, n)
			coll.ReduceScatterYHCCL(r, r.World(), sb, rb, n/pp, mpi.Sum, o)
		}},
		{"bcast-binomial", 4 << 20, func(r *mpi.Rank, n int64) {
			buf := r.PersistentBuffer("g/buf", n)
			r.Warm(buf, 0, n)
			coll.BcastBinomial(r, r.World(), buf, n, 0, o)
		}},
		{"allgather-ring", 1 << 20, func(r *mpi.Rank, n int64) {
			pp := int64(r.Size())
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n*pp)
			r.Warm(sb, 0, n)
			coll.AllgatherRing(r, r.World(), sb, rb, n, o)
		}},
		// p2p pins the shared-memory transport itself (Send/Recv staging
		// loops plus the fused receive+reduce), the charge-generating path
		// under every send/recv-based baseline.
		{"p2p-sendrecv", 2 << 20, func(r *mpi.Rank, n int64) {
			sb := r.PersistentBuffer("g/sb", n)
			rb := r.PersistentBuffer("g/rb", n)
			r.Warm(sb, 0, n)
			c := r.World()
			me := c.CommRank(r.ID())
			peer := me ^ 1
			if me%2 == 0 {
				r.Send(c, peer, sb, 0, n)
				r.Recv(c, peer, rb, 0, n, memmodel.Temporal)
				r.Send(c, peer, sb, 0, n)
			} else {
				r.Recv(c, peer, rb, 0, n, memmodel.Temporal)
				r.Send(c, peer, sb, 0, n)
				r.RecvReduce(c, peer, rb, 0, n, mpi.Sum)
			}
		}},
	}
	// A synthesized plan (the tuner's searched asymmetric-fanout family,
	// lowered through the §3.1 formalism) executed via the graph executor:
	// pins the whole plan→coll lowering path bit-for-bit, so the golden
	// gate covers tuned dispatch the same way it covers the hand-written
	// algorithms. The cache bytes themselves are pinned by internal/tune's
	// byte-identical cold-run test.
	fanoutGraph, err := plan.AllreduceFromSchedule(schedule.Fanout(p, 4))
	if err != nil {
		t.Fatalf("building golden plan graph: %v", err)
	}
	cases = append(cases, goldenCase{"allreduce-plan-fanout", 2 << 20, func(r *mpi.Rank, n int64) {
		sb := r.PersistentBuffer("g/sb", n)
		rb := r.PersistentBuffer("g/rb", n)
		r.Warm(sb, 0, n)
		coll.AllreduceGraph(r, r.World(), fanoutGraph, sb, rb, n, mpi.Sum, o)
	}})
	var sb strings.Builder
	for _, tc := range cases {
		n := tc.bytes / memmodel.ElemSize
		m := mpi.NewMachine(node, p, false)
		cold := m.MustRun(func(r *mpi.Rank) { tc.run(r, n) })
		warm := m.MustRun(func(r *mpi.Rank) { tc.run(r, n) })
		c := m.Model.Counters()
		fmt.Fprintf(&sb, "%s cold=%x warm=%x dav=%d copy=%d dram=%d rfo=%d wb=%d nt=%d xs=%d sync=%d\n",
			tc.name, cold, warm, c.DAV(), c.CopyVolume, c.DRAMTraffic,
			c.RFOBytes, c.WritebackBytes, c.NTStoreBytes, c.CrossSocketBytes, c.SyncCount)
	}
	// Hierarchical multi-node all-reduce: internal/cluster composes the
	// intra-node socket-MA phases with the analytic inter-node ring, all on
	// one persistent representative machine.
	{
		cl := cluster.New(node, 4, p, cluster.IB100())
		n := int64(2<<20) / memmodel.ElemSize
		cold := cl.MustAllreduceTime(cluster.YHCCLHierarchical, n)
		warm := cl.MustAllreduceTime(cluster.YHCCLHierarchical, n)
		c := cl.Machine().Model.Counters()
		fmt.Fprintf(&sb, "cluster-yhccl cold=%x warm=%x dav=%d copy=%d dram=%d rfo=%d wb=%d nt=%d xs=%d sync=%d\n",
			cold, warm, c.DAV(), c.CopyVolume, c.DRAMTraffic,
			c.RFOBytes, c.WritebackBytes, c.NTStoreBytes, c.CrossSocketBytes, c.SyncCount)
	}
	// One MiniAMR step: the application driver layers a real (data-carrying)
	// validation machine on top of the timing model, so both the modelled
	// times and the stencil checksum are pinned bit-for-bit.
	{
		cfg := miniamr.DefaultConfig(2)
		cfg.PerNode = p
		cfg.Timesteps = 1
		cfg.RefineCount = 2048
		cfg.GridDim = 8
		res, err := miniamr.Run(cfg, cluster.YHCCLHierarchical)
		if err != nil {
			t.Fatalf("miniamr golden step: %v", err)
		}
		fmt.Fprintf(&sb, "miniamr-step total=%x comm=%x checksum=%x\n",
			res.TotalTime, res.CommTime, res.Checksum)
	}
	return sb.String()
}

// TestGoldenDeterminism compares the fingerprint against the recorded
// golden file. The file was recorded before the direct-handoff scheduler
// and the residency-tracker rewrite, so this test proves those changes
// preserve simulated behavior exactly. Regenerate (only for intentional
// model changes) with: go test ./internal/bench -run TestGoldenDeterminism -update-golden
func TestGoldenDeterminism(t *testing.T) {
	got := goldenFingerprint(t)
	path := filepath.Join("testdata", "determinism.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("simulated behavior diverged from recorded golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenRunTwiceIdentical runs the fingerprint twice in-process and
// requires bit-identical results: the engine must be deterministic
// regardless of Go scheduler interleaving, goroutine reuse or allocator
// state.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	a := goldenFingerprint(t)
	b := goldenFingerprint(t)
	if a != b {
		t.Errorf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestFigureDeterminism regenerates quick figure sweeps twice and requires
// every series value to be bit-identical, guarding the scheduler fast
// paths across the full experiment harness (flags, barriers, residency,
// DAV counters all folded into the Y values).
func TestFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps in -short mode")
	}
	for _, id := range []string{"fig9a", "fig11a"} {
		id := id
		t.Run(id, func(t *testing.T) {
			f1, err := Run(id, true)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := Run(id, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(f1.Series) != len(f2.Series) {
				t.Fatalf("series count differs: %d vs %d", len(f1.Series), len(f2.Series))
			}
			for i, s1 := range f1.Series {
				s2 := f2.Series[i]
				if s1.Name != s2.Name {
					t.Fatalf("series %d name differs: %q vs %q", i, s1.Name, s2.Name)
				}
				for j, v1 := range s1.Y {
					if v1 != s2.Y[j] {
						t.Errorf("%s: series %q x[%d]: %x vs %x (not bit-identical)",
							id, s1.Name, j, v1, s2.Y[j])
					}
				}
			}
		})
	}
}
