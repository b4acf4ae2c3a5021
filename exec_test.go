package yhccl

import (
	"math"
	"strings"
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/memcopy"
	"yhccl/internal/plan"
)

// execMakespan runs one collective through run on a fresh real-data
// machine and returns the makespan. A non-nil table is attached as the
// machine's tuned plans.
func execMakespan(t *testing.T, p int, n int64, table *plan.Table, run func(r *Rank, sb, rb *Buffer)) float64 {
	t.Helper()
	m := NewMachine(NodeA(), p, true)
	if table != nil {
		m.SetTuning(coll.NewPlanner(table))
	}
	return m.MustRun(func(r *Rank) {
		// Generous shapes cover every collective's convention (p*n on
		// both sides); each body slices what it needs.
		sb := r.NewBuffer("sb", n*int64(p))
		rb := r.NewBuffer("rb", n*int64(p))
		r.FillPattern(sb, float64(r.ID()*1000))
		run(r, sb, rb)
	})
}

// TestExecParity proves Exec dispatches exactly the registry
// implementation it names: for each (collective, algorithm) pair in the
// registries of all nine collectives, the Exec makespan equals the makespan of calling
// coll.*Algos[name] directly on the world communicator (same machine shape,
// same buffers, same fill).
func TestExecParity(t *testing.T) {
	const p, n = 8, 1024

	type direct func(name string, r *Rank, sb, rb *Buffer)
	cases := []struct {
		collective string
		names      []string
		call       direct
	}{
		{"allreduce", AlgorithmNames("allreduce"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.AllreduceAlgos[name](r, r.World(), sb, rb, n, Sum, Options{})
		}},
		{"reduce-scatter", AlgorithmNames("reduce-scatter"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.ReduceScatterAlgos[name](r, r.World(), sb, rb, n, Sum, Options{})
		}},
		{"reduce", AlgorithmNames("reduce"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.ReduceAlgos[name](r, r.World(), sb, rb, n, Sum, 0, Options{})
		}},
		{"bcast", AlgorithmNames("bcast"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.BcastAlgos[name](r, r.World(), sb, n, 0, Options{})
		}},
		{"allgather", AlgorithmNames("allgather"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.AllgatherAlgos[name](r, r.World(), sb, rb, n, Options{})
		}},
		{"gather", AlgorithmNames("gather"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.GatherAlgos[name](r, r.World(), sb, rb, n, 0, Options{})
		}},
		{"scatter", AlgorithmNames("scatter"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.ScatterAlgos[name](r, r.World(), sb, rb, n, 0, Options{})
		}},
		{"alltoall", AlgorithmNames("alltoall"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.AlltoallAlgos[name](r, r.World(), sb, rb, n, Options{})
		}},
		{"scan", AlgorithmNames("scan"), func(name string, r *Rank, sb, rb *Buffer) {
			coll.ScanAlgos[name](r, r.World(), sb, rb, n, Sum, Options{})
		}},
	}
	for _, tc := range cases {
		if len(tc.names) == 0 {
			t.Fatalf("%s: empty registry", tc.collective)
		}
		for _, name := range tc.names {
			t.Run(tc.collective+"/"+name, func(t *testing.T) {
				directT := execMakespan(t, p, n, nil, func(r *Rank, sb, rb *Buffer) {
					tc.call(name, r, sb, rb)
				})
				execT := execMakespan(t, p, n, nil, func(r *Rank, sb, rb *Buffer) {
					if err := Exec(r, Req{Collective: tc.collective, Alg: name,
						Send: sb, Recv: rb, Count: n, Root: 0}); err != nil {
						t.Errorf("Exec: %v", err)
					}
				})
				if directT != execT {
					t.Errorf("makespan diverged: direct %v, Exec %v", directT, execT)
				}
			})
		}
	}
}

// TestExecParityExtras covers the default, tuned and resilient dispatch
// modes against direct calls of the implementations they select.
func TestExecParityExtras(t *testing.T) {
	const p, n = 8, 1024
	o := Options{}
	// A table whose plans carry searched overrides: all-reduce is keyed by
	// its n-element message (bucket 13), reduce-scatter by the p·n-element
	// total (bucket 16, not the per-rank bucket 13).
	table, err := plan.NewTable([]plan.Plan{
		{Collective: "allreduce", Bucket: 13, Params: plan.Params{Family: "socket-ma", SliceKB: 64, Policy: "t-copy"}},
		{Collective: "reduce-scatter", Bucket: 13, Params: plan.Params{Family: "two-level"}},
		{Collective: "reduce-scatter", Bucket: 14, Params: plan.Params{Family: "two-level"}},
		{Collective: "reduce-scatter", Bucket: 15, Params: plan.Params{Family: "two-level"}},
		{Collective: "reduce-scatter", Bucket: 16, Params: plan.Params{Family: "ring", RGDegree: 3}},
		{Collective: "reduce", Bucket: 13, Params: plan.Params{Family: "rg", RGDegree: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		direct func(r *Rank, sb, rb *Buffer)
		req    Req
		table  *plan.Table
	}{
		{"allreduce", func(r *Rank, sb, rb *Buffer) { coll.AllreduceYHCCL(r, r.World(), sb, rb, n, Sum, o) },
			Req{Collective: "allreduce", Count: n}, nil},
		{"reduce-scatter", func(r *Rank, sb, rb *Buffer) { coll.ReduceScatterYHCCL(r, r.World(), sb, rb, n, Sum, o) },
			Req{Collective: "reduce-scatter", Count: n}, nil},
		{"reduce", func(r *Rank, sb, rb *Buffer) { coll.ReduceYHCCL(r, r.World(), sb, rb, n, Sum, 2, o) },
			Req{Collective: "reduce", Root: 2, Count: n}, nil},
		{"bcast", func(r *Rank, sb, rb *Buffer) { coll.BcastPipelined(r, r.World(), sb, n, 1, o) },
			Req{Collective: "bcast", Root: 1, Count: n}, nil},
		{"allgather", func(r *Rank, sb, rb *Buffer) { coll.AllgatherPipelined(r, r.World(), sb, rb, n, o) },
			Req{Collective: "allgather", Count: n}, nil},
		{"gather", func(r *Rank, sb, rb *Buffer) { coll.GatherShm(r, r.World(), sb, rb, n, 0, o) },
			Req{Collective: "gather", Count: n}, nil},
		{"scatter", func(r *Rank, sb, rb *Buffer) { coll.ScatterShm(r, r.World(), sb, rb, n, 0, o) },
			Req{Collective: "scatter", Count: n}, nil},
		{"alltoall", func(r *Rank, sb, rb *Buffer) { coll.AlltoallMorton(r, r.World(), sb, rb, n, o) },
			Req{Collective: "alltoall", Count: n}, nil},
		{"scan", func(r *Rank, sb, rb *Buffer) { coll.ScanChain(r, r.World(), sb, rb, n, Sum, o) },
			Req{Collective: "scan", Count: n}, nil},
		{"tuned-allreduce", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.Allreduce, n*8, o)
			coll.AllreduceAlgos[name](r, r.World(), sb, rb, n, Sum, o)
		}, Req{Collective: "allreduce", Tuned: true, Count: n}, nil},
		{"tuned-allgather", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.Allgather, n*8, o)
			coll.AllgatherAlgos[name](r, r.World(), sb, rb, n, o)
		}, Req{Collective: "allgather", Tuned: true, Count: n}, nil},
		{"tuned-table-allreduce", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.Allreduce, n*8, o)
			coll.AllreduceAlgos[name](r, r.World(), sb, rb, n, Sum, o)
		}, Req{Collective: "allreduce", Tuned: true, Count: n}, table},
		{"tuned-table-reduce-scatter", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.ReduceScatter, p*n*8, o)
			coll.ReduceScatterAlgos[name](r, r.World(), sb, rb, n, Sum, o)
		}, Req{Collective: "reduce-scatter", Tuned: true, Count: n}, table},
		{"tuned-table-reduce", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.Reduce, n*8, o)
			coll.ReduceAlgos[name](r, r.World(), sb, rb, n, Sum, 3, o)
		}, Req{Collective: "reduce", Tuned: true, Root: 3, Count: n}, table},
		{"tuned-table-bcast-untuned", func(r *Rank, sb, rb *Buffer) {
			name, o := tunedFamily(r, plan.Bcast, n*8, o)
			coll.BcastAlgos[name](r, r.World(), sb, n, 0, o)
		}, Req{Collective: "bcast", Tuned: true, Count: n}, table},
		{"resilient-allreduce-depth1", func(r *Rank, sb, rb *Buffer) {
			name := coll.FallbackChain("allreduce", "yhccl")[1]
			r.SetOp("allreduce/" + name)
			coll.AllreduceAlgos[name](r, r.World(), sb, rb, n, Sum, Options{FallbackDepth: 1})
		}, Req{Collective: "allreduce", Resilience: true, Count: n, Options: Options{FallbackDepth: 1}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			directT := execMakespan(t, p, n, tc.table, tc.direct)
			execT := execMakespan(t, p, n, tc.table, func(r *Rank, sb, rb *Buffer) {
				q := tc.req
				q.Send, q.Recv = sb, rb
				if err := Exec(r, q); err != nil {
					t.Errorf("Exec: %v", err)
				}
			})
			if directT != execT {
				t.Errorf("makespan diverged: direct %v, Exec %v", directT, execT)
			}
		})
	}
}

// tunedFamily is the reference for tuned dispatch: the registry family the
// machine's plan table holds for the size ("yhccl" without one) and the
// options with the plan's searched overrides.
func tunedFamily(r *Rank, c plan.Coll, bytes int64, o Options) (string, Options) {
	pl := coll.PlannerOf(r.Machine())
	if pl == nil {
		return "yhccl", o
	}
	e := pl.Table().Lookup(c, bytes)
	if e == nil {
		return "yhccl", o
	}
	if e.Params.SliceKB > 0 {
		o.SliceMaxBytes = e.Params.SliceKB << 10
	}
	if e.Params.Policy != "" {
		pol, err := memcopy.ParsePolicy(e.Params.Policy)
		if err != nil {
			panic(err)
		}
		o = o.WithPolicy(pol)
	}
	if e.Params.RGDegree > 0 {
		o.RGDegree = e.Params.RGDegree
	}
	return e.Params.Family, o
}

// TestExecValidation pins the dispatcher's request validation: bad
// requests error before any rank body runs.
func TestExecValidation(t *testing.T) {
	const p, n = 4, 64
	cases := []struct {
		name string
		req  Req
		want string
	}{
		{"empty", Req{}, "Collective is empty"},
		{"unknown", Req{Collective: "allsum", Count: n}, "unknown collective"},
		{"count", Req{Collective: "allreduce", Count: 0}, "Count must be positive"},
		{"tuned+resilient", Req{Collective: "allreduce", Tuned: true, Resilience: true, Count: n}, "mutually exclusive"},
		{"tuned+alg", Req{Collective: "allreduce", Tuned: true, Alg: "ring", Count: n}, "conflicts"},
		{"tuned-scan", Req{Collective: "scan", Tuned: true, Count: n}, "paper collectives"},
		{"resilient-alltoall", Req{Collective: "alltoall", Resilience: true, Count: n}, "paper collectives"},
		{"nil-buffers", Req{Collective: "allreduce", Count: n}, "must both be set"},
		{"bcast-nil", Req{Collective: "bcast", Count: n}, "in-place buffer"},
		{"bad-alg", Req{Collective: "allreduce", Alg: "nope", Count: n}, "unknown algorithm"},
	}
	m := NewMachine(NodeB(), p, false)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n*p)
		rb := r.NewBuffer("rb", n*p)
		for _, tc := range cases {
			q := tc.req
			switch tc.name {
			case "nil-buffers", "bcast-nil":
				// leave buffers nil
			default:
				q.Send, q.Recv = sb, rb
			}
			err := Exec(r, q)
			if err == nil {
				if r.ID() == 0 {
					t.Errorf("%s: expected error, got nil", tc.name)
				}
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				if r.ID() == 0 {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
				}
			}
		}
	})
}

// TestExecAliases pins the accepted collective-name aliases.
func TestExecAliases(t *testing.T) {
	const p, n = 4, 256
	for _, alias := range []struct{ alias, canon string }{
		{"reducescatter", "reduce-scatter"},
		{"broadcast", "bcast"},
	} {
		a := execMakespan(t, p, n, nil, func(r *Rank, sb, rb *Buffer) {
			if err := Exec(r, Req{Collective: alias.alias, Send: sb, Recv: rb, Count: n}); err != nil {
				t.Errorf("%s: %v", alias.alias, err)
			}
		})
		b := execMakespan(t, p, n, nil, func(r *Rank, sb, rb *Buffer) {
			if err := Exec(r, Req{Collective: alias.canon, Send: sb, Recv: rb, Count: n}); err != nil {
				t.Errorf("%s: %v", alias.canon, err)
			}
		})
		if a != b {
			t.Errorf("%s vs %s: makespan %v != %v", alias.alias, alias.canon, a, b)
		}
	}
}

// TestExecDefaultOp pins the zero-Op default: a zero-valued Req.Op reduces
// with Sum rather than panicking on nil closures.
func TestExecDefaultOp(t *testing.T) {
	const p, n = 4, 256
	m := NewMachine(NodeA(), p, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		if err := Exec(r, Req{Collective: "allreduce", Send: sb, Recv: rb, Count: n}); err != nil {
			t.Errorf("Exec: %v", err)
			return
		}
		for i := int64(0); i < n; i += 7 {
			if got, want := rb.Slice(i, 1)[0], expectSum(p, i); got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), i, got, want)
				return
			}
		}
	})
}

// TestExecRejectsBadArguments pins the argument checks Exec makes before any
// data moves: a root outside the communicator, a buffer shorter than the
// collective's shape, and a Count whose message size overflows int64. Every
// rank gets the error naming the field, and the run finishes cleanly.
func TestExecRejectsBadArguments(t *testing.T) {
	const p, n = 4, 64
	type tc struct {
		name       string
		req        Req
		send, recv int64
		want       string
	}
	var cases []tc
	for _, alg := range AlgorithmNames("reduce") {
		cases = append(cases, tc{"reduce/" + alg + "/root-1", Req{Collective: "reduce", Alg: alg, Root: -1}, n, n, "reduce: Req.Root -1 outside 0..3"})
	}
	cases = append(cases,
		tc{"bcast/root99", Req{Collective: "bcast", Root: 99}, n, 0, "bcast: Req.Root 99 outside 0..3"},
		tc{"gather/root4", Req{Collective: "gather", Root: 4}, n, n * p, "gather: Req.Root 4 outside 0..3"},
		tc{"scatter/root7", Req{Collective: "scatter", Root: 7}, n * p, n, "scatter: Req.Root 7 outside 0..3"},
		tc{"allreduce/short-recv", Req{Collective: "allreduce"}, n, 8, "allreduce: Req.Recv holds 8 elements, need 64"},
		tc{"allgather/short-recv", Req{Collective: "allgather"}, n, n, "allgather: Req.Recv holds 64 elements, need 256"},
		tc{"reduce-scatter/short-send", Req{Collective: "reduce-scatter"}, n, n, "reduce-scatter: Req.Send holds 64 elements, need 256"},
		tc{"bcast/short", Req{Collective: "bcast"}, n - 1, 0, "bcast: Req.Send holds 63 elements, need 64"},
		tc{"allreduce/count-overflow", Req{Collective: "allreduce", Count: math.MaxInt64 / 4}, n, n, "overflows"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMachine(NodeA(), p, true)
			errs := make([]error, p)
			_, err := m.Run(func(r *Rank) {
				q := c.req
				if q.Count == 0 {
					q.Count = n
				}
				q.Send = r.NewBuffer("sb", c.send)
				if c.recv > 0 {
					q.Recv = r.NewBuffer("rb", c.recv)
				}
				errs[r.ID()] = Exec(r, q)
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			for rank, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("rank %d: error %v, want one containing %q", rank, err, c.want)
				}
			}
		})
	}
}

// FuzzExec drives Exec with arbitrary requests on a 4-rank real-data NodeA
// machine: the collective and algorithm names, Count, Root, the Tuned and
// Resilience bits, FallbackDepth and the buffer lengths (a length <= 0
// leaves the buffer nil). Exec must either return an error or run the
// collective to completion; it must never panic or hang a rank.
func FuzzExec(f *testing.F) {
	// More seeds, the requests that used to panic a rank, are in
	// testdata/fuzz/FuzzExec.
	f.Add("allreduce", "", int64(64), 0, false, false, 0, int64(64), int64(64))
	f.Add("alltoall", "morton", int64(16), 0, false, false, 0, int64(64), int64(64))
	f.Add("allreduce", "", int64(16), 0, false, true, 9, int64(16), int64(16))
	f.Add("bcast", "", int64(8), 2, true, false, 0, int64(8), int64(0))
	f.Fuzz(func(t *testing.T, collective, alg string, count int64, root int, tuned, resilience bool, depth int, send, recv int64) {
		const p, maxLen = 4, 1 << 12
		if send > maxLen || recv > maxLen {
			t.Skip("buffers bounded to keep the machine small")
		}
		m := NewMachine(NodeA(), p, true)
		errs := make([]error, p)
		_, err := m.Run(func(r *Rank) {
			q := Req{Collective: collective, Alg: alg, Count: count, Root: root,
				Tuned: tuned, Resilience: resilience, Options: Options{FallbackDepth: depth}}
			if send > 0 {
				q.Send = r.NewBuffer("sb", send)
			}
			if recv > 0 {
				q.Recv = r.NewBuffer("rb", recv)
			}
			errs[r.ID()] = Exec(r, q)
		})
		if errs[0] != nil {
			for rank, e := range errs {
				if e == nil {
					t.Fatalf("rank 0 rejected the request (%v) but rank %d ran it", errs[0], rank)
				}
			}
			return
		}
		if err != nil {
			t.Fatalf("Exec accepted the request but the run failed: %v", err)
		}
	})
}
