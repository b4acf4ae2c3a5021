package memcopy

import (
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

func TestDecideTable(t *testing.T) {
	const mb = int64(1) << 20
	cases := []struct {
		name  string
		p     Policy
		bytes int64
		h     Hints
		want  memmodel.StoreKind
	}{
		{"tcopy always temporal", TCopy, 64 * mb, Hints{NonTemporal: true, WorkSet: 100 * mb, AvailableCache: mb}, memmodel.Temporal},
		{"ntcopy always nt", NTCopy, 1, Hints{}, memmodel.NonTemporal},
		{"memmove small temporal", Memmove, 2*mb - 1, Hints{}, memmodel.Temporal},
		{"memmove large nt", Memmove, 2 * mb, Hints{NonTemporal: false}, memmodel.NonTemporal},
		{"adaptive temporal data stays cached", Adaptive, 64 * mb, Hints{NonTemporal: false, WorkSet: 100 * mb, AvailableCache: mb}, memmodel.Temporal},
		{"adaptive small workset stays cached", Adaptive, 64 * mb, Hints{NonTemporal: true, WorkSet: mb, AvailableCache: 2 * mb}, memmodel.Temporal},
		{"adaptive nt when big and nontemporal", Adaptive, 4096, Hints{NonTemporal: true, WorkSet: 100 * mb, AvailableCache: mb}, memmodel.NonTemporal},
		{"adaptive boundary W == C temporal", Adaptive, 4096, Hints{NonTemporal: true, WorkSet: mb, AvailableCache: mb}, memmodel.Temporal},
	}
	for _, c := range cases {
		if got := Decide(c.p, c.bytes, c.h); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Memmove: "memmove", TCopy: "t-copy", NTCopy: "nt-copy", Adaptive: "adaptive",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if got := Policy(99).String(); got != "policy(99)" {
		t.Errorf("unknown policy string = %q", got)
	}
}

func TestDecideUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decide(Policy(99), 1, Hints{})
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"memmove": Memmove, "t-copy": TCopy, "tcopy": TCopy,
		"nt-copy": NTCopy, "nt": NTCopy, "adaptive": Adaptive, "yhccl": Adaptive,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) should fail")
	}
}

// slicedCopyBandwidth copies `total` elements in `slice`-element chunks
// under the policy and returns the effective copy bandwidth in bytes/s
// (2 bytes of useful movement per copied byte, STREAM COPY convention).
func slicedCopyBandwidth(t *testing.T, policy Policy, sliceElems int64) float64 {
	t.Helper()
	node := topo.NodeA()
	m := mpi.NewMachine(node, 1, false)
	// 384 MB per buffer: the 768 MB working set dwarfs even NodeA's 256 MB
	// of L3, so capacity misses dominate (the Table 4 regime).
	total := int64(48) << 20
	h := Hints{NonTemporal: true, WorkSet: 2 * total * memmodel.ElemSize, AvailableCache: node.AvailableCache(1)}
	elapsed := m.MustRun(func(r *mpi.Rank) {
		src := r.NewBuffer("src", total)
		dst := r.NewBuffer("dst", total)
		for off := int64(0); off < total; off += sliceElems {
			n := sliceElems
			if off+n > total {
				n = total - off
			}
			Copy(r, policy, dst, off, src, off, n, h)
		}
	})
	return float64(2*total*memmodel.ElemSize) / elapsed
}

func TestTable4BandwidthOrdering(t *testing.T) {
	// Table 4 at 512 KB slices: nt-copy >> t-copy ~ memmove.
	slice := int64(512 << 10 / memmodel.ElemSize)
	bwNT := slicedCopyBandwidth(t, NTCopy, slice)
	bwT := slicedCopyBandwidth(t, TCopy, slice)
	bwMM := slicedCopyBandwidth(t, Memmove, slice)
	if bwNT <= bwT {
		t.Errorf("nt-copy (%.1f GB/s) should beat t-copy (%.1f GB/s) on sliced large copies", bwNT/1e9, bwT/1e9)
	}
	ratio := bwNT / bwT
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("nt/t bandwidth ratio = %.2f, want ~1.5 (paper's 50%% gain)", ratio)
	}
	if diff := bwMM/bwT - 1; diff > 0.05 || diff < -0.05 {
		t.Errorf("memmove at 512 KB slices (%.1f GB/s) should match t-copy (%.1f GB/s)", bwMM/1e9, bwT/1e9)
	}
}

func TestTable4MemmoveJumpsAtThreshold(t *testing.T) {
	// Table 4's 2 MB row: memmove switches to NT stores and catches nt-copy.
	slice := int64(2 << 20 / memmodel.ElemSize)
	bwMM := slicedCopyBandwidth(t, Memmove, slice)
	bwNT := slicedCopyBandwidth(t, NTCopy, slice)
	if rel := bwMM / bwNT; rel < 0.95 || rel > 1.05 {
		t.Errorf("memmove at 2 MB slices = %.1f GB/s, want ~nt-copy %.1f GB/s", bwMM/1e9, bwNT/1e9)
	}
}

func TestAdaptiveMatchesBestOfBoth(t *testing.T) {
	node := topo.NodeA()
	C := node.AvailableCache(1)

	// Large working set, non-temporal destination: adaptive == nt-copy.
	slice := int64(512 << 10 / memmodel.ElemSize)
	bwAdaptive := slicedCopyBandwidth(t, Adaptive, slice)
	bwNT := slicedCopyBandwidth(t, NTCopy, slice)
	if rel := bwAdaptive / bwNT; rel < 0.99 || rel > 1.01 {
		t.Errorf("adaptive on large workset = %.1f GB/s, want nt-copy %.1f GB/s", bwAdaptive/1e9, bwNT/1e9)
	}

	// Small working set: adaptive must choose temporal stores so the
	// destination stays cached for the next reader.
	m := mpi.NewMachine(node, 1, false)
	small := int64(1 << 14) // 128 KB
	h := Hints{NonTemporal: true, WorkSet: 3 * small * memmodel.ElemSize, AvailableCache: C}
	var reloadT float64
	m.MustRun(func(r *mpi.Rank) {
		src := r.NewBuffer("src", small)
		dst := r.NewBuffer("dst", small)
		Copy(r, Adaptive, dst, 0, src, 0, small, h)
		t0 := r.Now()
		r.Load(dst, 0, small)
		reloadT = r.Now() - t0
	})
	cacheT := float64(small*memmodel.ElemSize) / m.Model.CacheBandwidthPerRank(0)
	if reloadT > cacheT*1.01 {
		t.Errorf("after adaptive small copy, reload took %.3g (cache would be %.3g): destination was not cached", reloadT, cacheT)
	}
}

func TestCopyMovesRealData(t *testing.T) {
	m := mpi.NewMachine(topo.NodeA(), 1, true)
	m.MustRun(func(r *mpi.Rank) {
		src := r.NewBuffer("src", 100)
		dst := r.NewBuffer("dst", 100)
		r.FillPattern(src, 42)
		Copy(r, Adaptive, dst, 0, src, 0, 100, Hints{})
		if dst.Slice(99, 1)[0] != 42+99 {
			t.Error("adaptive copy did not move data")
		}
	})
}

// TestCopyRunDecidesPerOpSize: CopyRun charges exactly what Copy per slice
// charges. Memmove's NT switch looks at each op's size, so with slices at
// the threshold the full slices are non-temporal and a ragged tail below
// it is temporal.
func TestCopyRunDecidesPerOpSize(t *testing.T) {
	const slice = MemmoveNTThreshold / memmodel.ElemSize
	for _, n := range []int64{slice / 2, slice, 3 * slice, 3*slice + 100} {
		run := func(loop bool) (float64, memmodel.Counters) {
			m := mpi.NewMachine(topo.NodeA(), 1, false)
			t := m.MustRun(func(r *mpi.Rank) {
				src := r.NewBuffer("src", n)
				dst := r.NewBuffer("dst", n)
				if !loop {
					CopyRun(r, Memmove, dst, 0, src, 0, n, slice, Hints{})
					return
				}
				for off := int64(0); off < n; off += slice {
					Copy(r, Memmove, dst, off, src, off, min(slice, n-off), Hints{})
				}
			})
			return t, m.Model.Counters()
		}
		gotT, got := run(false)
		wantT, want := run(true)
		if gotT != wantT || got != want {
			t.Errorf("n=%d: CopyRun took %g with %+v, the Copy loop %g with %+v", n, gotT, got, wantT, want)
		}
		if full := n / slice * slice * memmodel.ElemSize; got.NTStoreBytes != full {
			t.Errorf("n=%d: %d non-temporal bytes, want the %d of the full slices", n, got.NTStoreBytes, full)
		}
	}
}
