package plan

import (
	"os"
	"path/filepath"
	"testing"

	"yhccl/internal/topo"
)

// FuzzPlanLoad checks that no cache file makes Load or Table panic: Load
// followed by Table returns an error or a table holding every plan. With
// raw set, the fuzzed bytes are the cache file. Otherwise two plans built
// from the fuzzed fields go through Cache.Save, so the file passes the
// checksum and the fields reach NewTable. `go test` runs the seed corpus,
// which includes the checksummed caches under testdata/fuzz/FuzzPlanLoad;
// `go test -fuzz=FuzzPlanLoad` explores further.
func FuzzPlanLoad(f *testing.F) {
	node := topo.NodeA()
	const ranks = 4
	f.Add(true, []byte(`{"format_version": 1, "cost_model_version": 1}`), "", 0, 0, "")
	f.Add(false, []byte(nil), "allreduce", 16, 17, "socket-ma")
	f.Add(false, []byte(nil), "bcast", 20, 20, "pipelined")
	f.Fuzz(func(t *testing.T, raw bool, data []byte, coll string, b0, b1 int, family string) {
		dir := t.TempDir()
		if raw {
			if err := os.WriteFile(filepath.Join(dir, FileName(node.Name, ranks)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			c := NewCache(node, ranks, 42)
			for _, b := range []int{b0, b1} {
				c.Plans = append(c.Plans, Plan{Collective: coll, Bucket: b, Params: Params{Family: family}, Source: "seed"})
			}
			if _, err := c.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
		c, err := Load(dir, node, ranks)
		if err != nil {
			return
		}
		if tab, err := c.Table(); err == nil && tab.Entries() != len(c.Plans) {
			t.Fatalf("table holds %d of %d plans", tab.Entries(), len(c.Plans))
		}
	})
}
