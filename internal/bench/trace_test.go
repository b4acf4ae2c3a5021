package bench

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// traceFingerprint runs a warm-up and then a traced warm iteration of each
// case on NodeA with p=8 at 256 KB, and returns one line per case: the
// number of trace events and an FNV-64a digest of the Chrome trace JSON.
// The digest covers every span's name, proc, start and duration in
// recording order, so it pins the order in which ranks' memory operations
// complete as well as their virtual times. The ring case adds the p2p
// staging copies and the fused receive+reduce.
func traceFingerprint(t testing.TB) string {
	t.Helper()
	node := topo.NodeA()
	const p = 8
	const n = int64(256<<10) / memmodel.ElemSize
	o := coll.Options{}
	cases := []struct {
		name string
		alg  func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o coll.Options)
	}{
		{"allreduce-dpml", coll.AllreduceDPML},
		{"allreduce-ring", coll.AllreduceRing},
	}
	var sb strings.Builder
	for _, tc := range cases {
		m := mpi.NewMachine(node, p, false)
		body := func(r *mpi.Rank) {
			s := r.PersistentBuffer("t/sb", n)
			d := r.PersistentBuffer("t/rb", n)
			r.Warm(s, 0, n)
			tc.alg(r, r.World(), s, d, n, mpi.Sum, o)
		}
		m.MustRun(body)
		tr := sim.NewTracer()
		m.Model.SetTracer(tr)
		m.MustRun(body)
		m.Model.SetTracer(nil)
		h := fnv.New64a()
		if err := tr.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s events=%d fnv64a=%016x\n", tc.name, tr.Len(), h.Sum64())
	}
	return sb.String()
}

// TestTraceGolden compares the traced fingerprint against
// testdata/trace.golden. Regenerate (only for intentional model or tracer
// changes) with: go test ./internal/bench -run TestTraceGolden -update-golden
func TestTraceGolden(t *testing.T) {
	got := traceFingerprint(t)
	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
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
		t.Errorf("traced output diverged from recorded golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
