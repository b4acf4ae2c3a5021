package bench

import (
	"fmt"

	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

// Ablation studies for the design choices DESIGN.md §4 calls out. These go
// beyond the paper's figures: they quantify each knob in isolation.

func init() {
	register("abl-slice", "Ablation: MA slice size Imax, NodeA p=64 all-reduce", ablSlice)
	register("abl-socket", "Ablation: socket-aware vs flat MA across sizes, NodeB p=48", ablSocket)
	register("abl-cacherule", "Ablation: available-cache rule C=c'+p*c'' vs inclusive C=c'", ablCacheRule)
	register("abl-switch", "Ablation: small-message switch threshold, NodeB p=48", ablSwitch)
	register("abl-rgdegree", "Ablation: RG branching degree k, NodeA p=64 all-reduce", ablRGDegree)
}

// ablSlice sweeps Imax for the socket-aware MA all-reduce at 16 MB.
func ablSlice(quick bool) (*Figure, error) {
	node := topo.NodeA()
	const s = 16 << 20
	imaxes := []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	if quick {
		imaxes = []int64{64 << 10, 256 << 10, 1 << 20}
	}
	f := &Figure{
		ID: "abl-slice", Title: "MA slice size ablation (NodeA p=64, 16 MB all-reduce)",
		XLabel: "Imax bytes", XValues: imaxes, YLabel: "time (us)",
		Notes: []string{"the paper's 256 KB sits at/near the optimum: small slices pay sync, big slices spill the cache"},
	}
	ys := make([]float64, len(imaxes))
	for i, imax := range imaxes {
		ys[i] = measure(node, 64, algCall("allreduce", "socket-ma", coll.Options{SliceMaxBytes: imax}), s)
	}
	f.Series = []Series{{Name: "socket-MA all-reduce", Y: ys}}
	return f, nil
}

// ablSocket compares flat MA and socket-aware MA across sizes.
func ablSocket(quick bool) (*Figure, error) {
	node := topo.NodeB()
	sizes := MsgSizes(quick)
	f := &Figure{
		ID: "abl-socket", Title: "Socket-aware vs flat MA (NodeB p=48 all-reduce)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "socket-aware",
		Notes: []string{"socket-aware pays +2(m-1)s DAV for p/m-deep sync chains instead of p-deep"},
	}
	f.Series = append(f.Series, Series{Name: "socket-aware", Y: sweep(sizes, func(s int64) float64 {
		return measure(node, 48, algCall("allreduce", "socket-ma", NodeOptions(node)), s)
	})})
	f.Series = append(f.Series, Series{Name: "flat MA", Y: sweep(sizes, func(s int64) float64 {
		return measure(node, 48, algCall("allreduce", "ma", NodeOptions(node)), s)
	})})
	return f, nil
}

// ablCacheRule contrasts the non-inclusive C = c' + p*c” machine with a
// hypothetical inclusive-LLC twin (C = c'): the NT switch fires earlier
// and mid-size messages change behaviour.
func ablCacheRule(quick bool) (*Figure, error) {
	normal := topo.NodeA()
	inclusive := topo.NodeA()
	inclusive.Name = "NodeA-inclusive"
	inclusive.L3Inclusive = true
	sizes := MsgSizes(quick)
	f := &Figure{
		ID: "abl-cacherule", Title: "Available-cache rule ablation (NodeA p=64 all-reduce, adaptive copy)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)",
		Notes: []string{
			fmt.Sprintf("C(non-inclusive) = %s, C(inclusive) = %s",
				ByteSize(normal.AvailableCache(64)), ByteSize(inclusive.AvailableCache(64))),
		},
	}
	f.Series = append(f.Series, Series{Name: "non-inclusive rule", Y: sweep(sizes, func(s int64) float64 {
		return measure(normal, 64, algCall("allreduce", "socket-ma", coll.Options{}), s)
	})})
	f.Series = append(f.Series, Series{Name: "inclusive rule", Y: sweep(sizes, func(s int64) float64 {
		return measure(inclusive, 64, algCall("allreduce", "socket-ma", coll.Options{}), s)
	})})
	return f, nil
}

// ablSwitch sweeps the two-level/MA switch threshold and reports the
// resulting time at small and mid sizes.
func ablSwitch(quick bool) (*Figure, error) {
	node := topo.NodeB()
	thresholds := []int64{-1, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	if quick {
		thresholds = []int64{-1, 256 << 10, 4 << 20}
	}
	sizes := []int64{16 << 10, 128 << 10, 1 << 20}
	f := &Figure{
		ID: "abl-switch", Title: "Algorithm-switch threshold ablation (NodeB p=48 all-reduce)",
		XLabel: "threshold bytes (-1 = never switch)", XValues: thresholds, YLabel: "time (us)",
	}
	for _, s := range sizes {
		s := s
		ys := make([]float64, len(thresholds))
		for i, th := range thresholds {
			ys[i] = measure(node, 48, algCall("allreduce", "yhccl", coll.Options{SwitchSmallBytes: th}), s)
		}
		f.Series = append(f.Series, Series{Name: "msg " + ByteSize(s), Y: ys})
	}
	return f, nil
}

// ablRGDegree sweeps the RG branching degree.
func ablRGDegree(quick bool) (*Figure, error) {
	node := topo.NodeA()
	degrees := []int64{1, 2, 3, 7}
	const s = 8 << 20
	f := &Figure{
		ID: "abl-rgdegree", Title: "RG branching degree ablation (NodeA p=64, 8 MB all-reduce)",
		XLabel: "degree k", XValues: degrees, YLabel: "time (us)",
	}
	ys := make([]float64, len(degrees))
	for i, k := range degrees {
		ys[i] = measure(node, 64, algCall("allreduce", "rg", coll.Options{RGDegree: int(k)}), s)
	}
	f.Series = []Series{{Name: "RG all-reduce", Y: ys}}
	return f, nil
}
