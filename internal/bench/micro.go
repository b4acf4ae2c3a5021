package bench

import (
	"yhccl/internal/coll"
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// Micro-experiments: Fig. 3 (copy-out overhead vs slice size), Table 4
// (sliced STREAM copy bandwidths) and Table 5 (CMA vs adaptive-copy).

func init() {
	register("fig3", "Copy-out overhead for reduction vs slice size, NodeA 64 ranks", fig3CopyOut)
	register("table4", "Sliced-copy bandwidth: memmove vs t-copy vs nt-copy, NodeA", table4SlicedCopy)
	register("table5", "CMA DMA-copy vs adaptive-copy, 32 MB patterns, NodeA", table5CMA)
}

// fig3CopyOut reproduces Fig. 3: each of 64 ranks copies `total` bytes
// from shared memory to its private buffer with the C-library memmove,
// chunked at the given slice size. Below memmove's 2 MB NT threshold the
// copies write-allocate and the RFO + write-back traffic inflates the
// time; at 2 MB the NT path kicks in.
func fig3CopyOut(quick bool) (*Figure, error) {
	node := topo.NodeA()
	const p = 64
	total := int64(256) << 20 // per-rank bytes, as in the paper
	if quick {
		total = 16 << 20
	}
	slices := []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	f := &Figure{
		ID:      "fig3",
		Title:   "Copy-out overhead for reduction (NodeA, 64 ranks)",
		XLabel:  "Slice bytes",
		XValues: slices,
		YLabel:  "time (us)",
		Notes:   []string{"memmove switches to NT stores at 2 MB: smaller slices pay RFO + write-back"},
	}
	ys := make([]float64, len(slices))
	for i, slice := range slices {
		m := mpi.NewMachine(node, p, false)
		n := total / memmodel.ElemSize
		sliceElems := slice / memmodel.ElemSize
		ys[i] = m.MustRun(func(r *mpi.Rank) {
			src := r.World().Shared(mpi.Key{Label: "fig3", Name: "src"}, 0, n)
			dst := r.PersistentBuffer("fig3/dst", n)
			for off := int64(0); off < n; off += sliceElems {
				ln := sliceElems
				if off+ln > n {
					ln = n - off
				}
				memcopy.Copy(r, memcopy.Memmove, dst, off, src, off, ln, memcopy.Hints{})
			}
		})
	}
	f.Series = []Series{{Name: "memmove copy-out", Y: ys}}
	return f, nil
}

// table4SlicedCopy reproduces Table 4: copy a large array in slices with
// the three copy implementations and report the effective copy bandwidth
// (2 bytes moved per copied byte, STREAM convention).
func table4SlicedCopy(quick bool) (*Figure, error) {
	node := topo.NodeA()
	total := int64(16) << 30 // the paper's 16 GB array (model-only)
	if quick {
		total = 1 << 30
	}
	slices := []int64{512 << 10, 1 << 20, 2 << 20}
	f := &Figure{
		ID:      "table4",
		Title:   "Sliced-copy memory bandwidth (NodeA)",
		XLabel:  "Slice bytes",
		XValues: slices,
		YLabel:  "bandwidth (GB/s)",
	}
	impls := []struct {
		name string
		pol  memcopy.Policy
	}{
		{"memmove", memcopy.Memmove},
		{"t-copy", memcopy.TCopy},
		{"nt-copy", memcopy.NTCopy},
	}
	// One rank per core streams its share of the array concurrently, as in
	// the redesigned STREAM COPY of §4.1.
	const p = 64
	perRank := total / p / memmodel.ElemSize
	for _, im := range impls {
		ys := make([]float64, len(slices))
		for i, slice := range slices {
			sliceElems := slice / memmodel.ElemSize
			m := mpi.NewMachine(node, p, false)
			h := memcopy.Hints{NonTemporal: true, WorkSet: 2 * total, AvailableCache: node.AvailableCache(p)}
			t := m.MustRun(func(r *mpi.Rank) {
				src := r.PersistentBuffer("t4/src", perRank)
				dst := r.PersistentBuffer("t4/dst", perRank)
				for off := int64(0); off < perRank; off += sliceElems {
					ln := sliceElems
					if off+ln > perRank {
						ln = perRank - off
					}
					memcopy.Copy(r, im.pol, dst, off, src, off, ln, h)
				}
			})
			ys[i] = float64(2*total) / t
		}
		f.Series = append(f.Series, Series{Name: im.name, Y: ys})
	}
	return f, nil
}

// table5CMA reproduces Table 5: one-to-all and ring copies of 32 MB per
// message, CMA kernel copy vs adaptive-copy through shared memory.
func table5CMA(quick bool) (*Figure, error) {
	node := topo.NodeA()
	p := 64
	if quick {
		p = 16
	}
	msg := int64(32<<20) / memmodel.ElemSize
	f := &Figure{
		ID:      "table5",
		Title:   "CMA copy vs adaptive-copy (32 MB per message, NodeA)",
		XLabel:  "pattern (0 = one-to-all, 1 = ring)",
		XValues: []int64{0, 1},
		YLabel:  "time (seconds)",
		Notes: []string{
			"one-to-all: rank 0's pages attached by p-1 readers (lock contention)",
			"ring: rank i to rank (i+1) mod p",
		},
	}

	oneToAllCMA := func() float64 {
		m := mpi.NewMachine(node, p, false)
		return m.MustRun(func(r *mpi.Rank) {
			buf := r.PersistentBuffer("t5/buf", msg)
			c := r.World()
			c.Publish(r, mpi.Key{Label: "t5", Name: "src"}, buf)
			c.Barrier().Arrive(r.Proc())
			if r.ID() != 0 {
				coll.CMACopy(r, buf, 0, c.Peer(mpi.Key{Label: "t5", Name: "src"}, 0), 0, msg, p-1)
			}
		})
	}
	ringCMA := func() float64 {
		m := mpi.NewMachine(node, p, false)
		return m.MustRun(func(r *mpi.Rank) {
			src := r.PersistentBuffer("t5/src", msg)
			dst := r.PersistentBuffer("t5/dst", msg)
			c := r.World()
			c.Publish(r, mpi.Key{Label: "t5", Name: "ring"}, src)
			c.Barrier().Arrive(r.Proc())
			prev := (c.CommRank(r.ID()) + p - 1) % p
			coll.CMACopy(r, dst, 0, c.Peer(mpi.Key{Label: "t5", Name: "ring"}, prev), 0, msg, 1)
		})
	}
	adaptive := func(label string) float64 {
		// Table 5's setup: the sending buffers are allocated in shared
		// memory with MPI_Win_allocate_shared, so the transfer is a single
		// adaptive-copy from the window straight into the private receive
		// buffer — no staging pass.
		m := mpi.NewMachine(node, p, false)
		h := memcopy.Hints{NonTemporal: true, WorkSet: 2 * msg * int64(p) * memmodel.ElemSize, AvailableCache: node.AvailableCache(p)}
		return m.MustRun(func(r *mpi.Rank) {
			c := r.World()
			me := c.CommRank(r.ID())
			c.Shared(windowKey(me), c.SocketOf(me), msg) // allocate my window
			dst := r.PersistentBuffer("t5a/dst", msg)
			c.Barrier().Arrive(r.Proc())
			if label == "one-to-all" {
				if me != 0 {
					src := c.Shared(windowKey(0), c.SocketOf(0), msg)
					memcopy.Copy(r, memcopy.Adaptive, dst, 0, src, 0, msg, h)
				}
			} else {
				prev := (me + p - 1) % p
				src := c.Shared(windowKey(prev), c.SocketOf(prev), msg)
				memcopy.Copy(r, memcopy.Adaptive, dst, 0, src, 0, msg, h)
			}
		})
	}

	f.Series = []Series{
		{Name: "DMA copy (CMA)", Y: []float64{oneToAllCMA(), ringCMA()}},
		{Name: "adaptive-copy", Y: []float64{adaptive("one-to-all"), adaptive("ring")}},
	}
	return f, nil
}

// windowKey keys rank's shared window in Table 5's adaptive-copy setup.
func windowKey(rank int) mpi.Key {
	return mpi.Key{Label: "t5a", Name: "ring-seg/%d", A: int64(rank)}
}
