package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"yhccl/internal/topo"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	node, err := topo.Preset("NodeA")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(node, 64, 42)
	c.Plans = []Plan{
		{Collective: "allreduce", Bucket: 21, SizeBytes: 2 << 20,
			Params:           Params{Family: "socket-ma", SliceKB: 256, Policy: "nt-copy"},
			PredictedSeconds: 1.25e-3, PredictedDAV: 666_894_336,
			BestSeed: "socket-ma", BestSeedSeconds: 1.3e-3, Source: "searched"},
		{Collective: "allreduce", Bucket: 20, SizeBytes: 1 << 20,
			Params: Params{Family: "two-level"}, PredictedSeconds: 9e-4,
			BestSeed: "two-level", BestSeedSeconds: 9e-4, Source: "seed"},
		{Collective: "bcast", Bucket: 20, SizeBytes: 1 << 20,
			Params: Params{Family: "pipelined"}, PredictedSeconds: 4e-4,
			BestSeed: "pipelined", BestSeedSeconds: 4e-4, Source: "seed"},
	}
	return c
}

// Plan -> JSON -> Plan must round-trip bit-exactly, including every
// searched parameter, across the full cross product of field settings.
func TestPlanJSONRoundTripExact(t *testing.T) {
	families := []string{"ring", "socket-ma", "fanout"}
	sources := []string{"seed", "searched", "extrapolated"}
	i := 0
	for _, fam := range families {
		for _, src := range sources {
			for _, kb := range []int64{0, 64, 512} {
				for _, pol := range []string{"", "t-copy", "nt-copy"} {
					p := Plan{
						Collective: Coll(i % int(NumColls)).String(), Bucket: 13 + i,
						SizeBytes:        int64(1) << (13 + i%15),
						Params:           Params{Family: fam, SliceKB: kb, Policy: pol, RGDegree: i % 5, Fanout: i % 7},
						PredictedSeconds: 1e-6 * float64(i+1), PredictedDAV: int64(i) * 1e6,
						BestSeed: fam, BestSeedSeconds: 1.1e-6 * float64(i+1), Source: src,
					}
					raw, err := json.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					var back Plan
					if err := json.Unmarshal(raw, &back); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(p, back) {
						t.Fatalf("round-trip mismatch:\n  in:  %+v\n  out: %+v", p, back)
					}
					i++
				}
			}
		}
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := testCache(t)
	path, err := c.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := topo.Preset("NodeA")
	got, err := Load(dir, node, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("loaded cache differs:\n  saved:  %+v\n  loaded: %+v", c, got)
	}
	// Saving the same logical content twice (even with plans pre-shuffled)
	// must produce byte-identical files — the determinism the golden gate
	// depends on.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCache(t)
	c2.Plans[0], c2.Plans[2] = c2.Plans[2], c2.Plans[0]
	if _, err := c2.Save(dir); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-saving equal plan sets produced different bytes")
	}
	tab, err := got.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", tab.Entries())
	}
}

func TestCacheLoadRejections(t *testing.T) {
	node, _ := topo.Preset("NodeA")
	nodeB, _ := topo.Preset("NodeB")

	save := func(t *testing.T, mutate func(*Cache)) string {
		t.Helper()
		dir := t.TempDir()
		c := testCache(t)
		if mutate != nil {
			mutate(c)
		}
		if _, err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing-file", func(t *testing.T) {
		if _, err := Load(t.TempDir(), node, 64); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want fs.ErrNotExist", err)
		}
	})
	t.Run("format-version", func(t *testing.T) {
		dir := save(t, func(c *Cache) { c.FormatVersion = FormatVersion + 1 })
		if _, err := Load(dir, node, 64); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("cost-model-version", func(t *testing.T) {
		dir := save(t, func(c *Cache) { c.CostModelVersion = 999 })
		if _, err := Load(dir, node, 64); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("topology-fingerprint", func(t *testing.T) {
		// Tuned for NodeA, loaded on a machine whose NodeA was recalibrated.
		dir := save(t, nil)
		recal := *node
		recal.DRAMBandwidthPerSocket *= 1.01
		if _, err := Load(dir, &recal, 64); !errors.Is(err, ErrTopology) {
			t.Fatalf("err = %v, want ErrTopology", err)
		}
	})
	t.Run("rank-count", func(t *testing.T) {
		// A p=48 cache renamed to pose as the p=64 one: checksum verifies,
		// but the recorded rank count must still reject it.
		dir := save(t, func(c *Cache) { c.Ranks = 48 })
		from := filepath.Join(dir, FileName("NodeA", 48))
		to := filepath.Join(dir, FileName("NodeA", 64))
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, node, 64); !errors.Is(err, ErrTopology) {
			t.Fatalf("err = %v, want ErrTopology", err)
		}
	})
	t.Run("other-machine", func(t *testing.T) {
		// A NodeA cache renamed to pose as NodeB's.
		dir := save(t, nil)
		from := filepath.Join(dir, FileName("NodeA", 64))
		to := filepath.Join(dir, FileName("NodeB", 64))
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, nodeB, 64); !errors.Is(err, ErrTopology) {
			t.Fatalf("err = %v, want ErrTopology", err)
		}
	})
	t.Run("corrupted-body", func(t *testing.T) {
		dir := save(t, nil)
		path := filepath.Join(dir, FileName("NodeA", 64))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a plan's family in place: valid JSON, wrong checksum.
		tampered := bytes.Replace(raw, []byte(`"socket-ma"`), []byte(`"socket-mb"`), 1)
		if bytes.Equal(raw, tampered) {
			t.Fatal("tamper target not found")
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, node, 64); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated-file", func(t *testing.T) {
		dir := save(t, nil)
		path := filepath.Join(dir, FileName("NodeA", 64))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, node, 64); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
}
