package yhccl

import (
	"fmt"
	"testing"
)

func expectSum(p int, i int64) float64 {
	return float64(p)*float64(i) + float64(p*(p-1))/2
}

// execOK runs q through Exec and reports any request error on t.
func execOK(t *testing.T, r *Rank, q Req) {
	t.Helper()
	if err := Exec(r, q); err != nil {
		t.Error(err)
	}
}

func TestPublicAllreduce(t *testing.T) {
	const p = 8
	const n = 2048
	m := NewMachine(NodeA(), p, true)
	makespan := m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		execOK(t, r, Req{Collective: "allreduce", Send: sb, Recv: rb, Count: n})
		for i := int64(0); i < n; i += 7 {
			if got := rb.Slice(i, 1)[0]; got != expectSum(p, i) {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), i, got, expectSum(p, i))
				return
			}
		}
	})
	if makespan <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestPublicCollectives(t *testing.T) {
	const p = 4
	const n = 512
	m := NewMachine(NodeB(), p, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n*p)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		execOK(t, r, Req{Collective: "reduce-scatter", Send: sb, Recv: rb, Count: n})
		for i := int64(0); i < n; i += 13 {
			want := expectSum(p, int64(r.ID())*n+i)
			if got := rb.Slice(i, 1)[0]; got != want {
				t.Errorf("reduce-scatter rank %d [%d]: %v != %v", r.ID(), i, got, want)
				return
			}
		}

		red := r.NewBuffer("red", n)
		r.FillPattern(sb, float64(r.ID()))
		execOK(t, r, Req{Collective: "reduce", Send: sb, Recv: red, Count: n, Root: 1})
		if r.ID() == 1 {
			if got := red.Slice(5, 1)[0]; got != expectSum(p, 5) {
				t.Errorf("reduce: %v != %v", got, expectSum(p, 5))
			}
		}

		buf := r.NewBuffer("buf", n)
		if r.ID() == 2 {
			r.FillPattern(buf, 99)
		}
		execOK(t, r, Req{Collective: "bcast", Send: buf, Count: n, Root: 2})
		if got := buf.Slice(n-1, 1)[0]; got != 99+float64(n-1) {
			t.Errorf("bcast rank %d: %v", r.ID(), got)
		}

		ag := r.NewBuffer("ag", n*p)
		r.FillPattern(buf, float64(1000*r.ID()))
		execOK(t, r, Req{Collective: "allgather", Send: buf, Recv: ag, Count: n})
		for b := 0; b < p; b++ {
			if got := ag.Slice(int64(b)*n, 1)[0]; got != float64(1000*b) {
				t.Errorf("allgather rank %d block %d: %v", r.ID(), b, got)
				return
			}
		}
	})
}

func TestPublicNamedAlgorithms(t *testing.T) {
	const p = 4
	const n = 256
	for _, name := range AlgorithmNames("allreduce") {
		name := name
		t.Run(name, func(t *testing.T) {
			m := NewMachine(NodeA(), p, true)
			m.MustRun(func(r *Rank) {
				sb := r.NewBuffer("sb", n)
				rb := r.NewBuffer("rb", n)
				r.FillPattern(sb, float64(r.ID()))
				if err := Exec(r, Req{Collective: "allreduce", Alg: name, Send: sb, Recv: rb, Count: n}); err != nil {
					t.Error(err)
					return
				}
				if got := rb.Slice(0, 1)[0]; got != expectSum(p, 0) {
					t.Errorf("%s: rb[0] = %v, want %v", name, got, expectSum(p, 0))
				}
			})
		})
	}
}

func TestPublicNamedWrappersAllCollectives(t *testing.T) {
	const p = 4
	const n = 256
	m := NewMachine(NodeA(), p, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n*p)
		small := r.NewBuffer("small", n)
		rb := r.NewBuffer("rb", n)
		big := r.NewBuffer("big", n*p)

		r.FillPattern(sb, float64(r.ID()))
		execOK(t, r, Req{Collective: "reduce-scatter", Alg: "ring", Send: sb, Recv: rb, Count: n})
		if got := rb.Slice(0, 1)[0]; got != expectSum(p, int64(r.ID())*n) {
			t.Errorf("reduce-scatter ring: %v", got)
		}

		r.FillPattern(small, float64(r.ID()))
		execOK(t, r, Req{Collective: "reduce", Alg: "dpml", Send: small, Recv: rb, Count: n})
		if r.ID() == 0 {
			if got := rb.Slice(1, 1)[0]; got != expectSum(p, 1) {
				t.Errorf("reduce dpml: %v", got)
			}
		}

		if r.ID() == 1 {
			r.FillPattern(small, 5)
		}
		execOK(t, r, Req{Collective: "bcast", Alg: "binomial", Send: small, Count: n, Root: 1})
		if got := small.Slice(0, 1)[0]; got != 5 {
			t.Errorf("bcast binomial rank %d: %v", r.ID(), got)
		}

		r.FillPattern(small, float64(r.ID()*7))
		execOK(t, r, Req{Collective: "allgather", Alg: "ring", Send: small, Recv: big, Count: n})
		if got := big.Slice(3*n, 1)[0]; got != 21 {
			t.Errorf("allgather ring: %v", got)
		}

		// Error paths for every named-algorithm collective.
		for _, q := range []Req{
			{Collective: "reduce-scatter", Send: sb, Recv: rb},
			{Collective: "reduce", Send: small, Recv: rb},
			{Collective: "bcast", Send: small},
			{Collective: "allgather", Send: small, Recv: big},
		} {
			q.Alg, q.Count = "nope", n
			if Exec(r, q) == nil {
				t.Errorf("%s: unknown algorithm accepted", q.Collective)
			}
		}
	})
}

func TestPublicUnknownAlgorithm(t *testing.T) {
	m := NewMachine(NodeA(), 2, false)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", 8)
		rb := r.NewBuffer("rb", 8)
		if err := Exec(r, Req{Collective: "allreduce", Alg: "bogus", Send: sb, Recv: rb, Count: 8}); err == nil {
			t.Error("expected error for unknown algorithm")
		}
	})
}

func TestAlgorithmNamesCoverCollectives(t *testing.T) {
	for _, c := range []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather", "gather", "scatter", "alltoall", "scan", "reducescatter", "broadcast"} {
		if len(AlgorithmNames(c)) == 0 {
			t.Errorf("no algorithms for %s", c)
		}
	}
	if AlgorithmNames("alltoallv") != nil {
		t.Error("unknown collective should yield nil")
	}
}

func TestPublicGatherScatterAlltoall(t *testing.T) {
	const p = 4
	const n = 256
	m := NewMachine(NodeA(), p, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		gbuf := r.NewBuffer("gbuf", n*p)
		r.FillPattern(sb, float64(r.ID()*100))
		execOK(t, r, Req{Collective: "gather", Send: sb, Recv: gbuf, Count: n})
		if r.ID() == 0 {
			for b := int64(0); b < p; b++ {
				if got := gbuf.Slice(b*n, 1)[0]; got != float64(b*100) {
					t.Errorf("gather block %d: %v", b, got)
				}
			}
		}

		rb := r.NewBuffer("scat", n)
		if r.ID() == 0 {
			r.FillPattern(gbuf, 0)
		}
		execOK(t, r, Req{Collective: "scatter", Send: gbuf, Recv: rb, Count: n})
		if got := rb.Slice(0, 1)[0]; got != float64(int64(r.ID())*n) {
			t.Errorf("scatter rank %d: %v", r.ID(), got)
		}

		a2aIn := r.NewBuffer("a2ain", n*p)
		a2aOut := r.NewBuffer("a2aout", n*p)
		in := a2aIn.Slice(0, n*p)
		for j := int64(0); j < p; j++ {
			for i := int64(0); i < n; i++ {
				in[j*n+i] = float64(r.ID())*1e4 + float64(j)
			}
		}
		execOK(t, r, Req{Collective: "alltoall", Send: a2aIn, Recv: a2aOut, Count: n})
		for j := int64(0); j < p; j++ {
			want := float64(j)*1e4 + float64(r.ID())
			if got := a2aOut.Slice(j*n, 1)[0]; got != want {
				t.Errorf("alltoall rank %d block %d: %v, want %v", r.ID(), j, got, want)
			}
		}
	})
}

func TestPolicyOptions(t *testing.T) {
	// Forcing each policy must keep results correct.
	const p = 4
	const n = 1024
	for _, pol := range []Policy{Memmove, TCopy, NTCopy, Adaptive} {
		m := NewMachine(NodeA(), p, true)
		m.MustRun(func(r *Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, float64(r.ID()))
			execOK(t, r, Req{Collective: "allreduce", Send: sb, Recv: rb, Count: n, Options: Options{}.WithPolicy(pol)})
			if got := rb.Slice(100, 1)[0]; got != expectSum(p, 100) {
				t.Errorf("policy %v: %v != %v", pol, got, expectSum(p, 100))
			}
		})
	}
}

func ExampleExec() {
	m := NewMachine(NodeA(), 4, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", 4)
		rb := r.NewBuffer("rb", 4)
		for i := range sb.Slice(0, 4) {
			sb.Slice(0, 4)[i] = float64(r.ID())
		}
		if err := Exec(r, Req{Collective: "allreduce", Send: sb, Recv: rb, Count: 4}); err != nil {
			panic(err)
		}
		if r.ID() == 0 {
			fmt.Println(rb.Slice(0, 4))
		}
	})
	// Output: [6 6 6 6]
}
