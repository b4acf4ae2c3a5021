package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// runShape is one run-equivalence workload: n elements per rank in slices
// of at most slice, folded from srcs shared segments with the given store
// kind.
type runShape struct {
	n, slice int64
	srcs     int
	kind     memmodel.StoreKind
}

// runForm says how runWorkload issues its runs.
type runForm int

const (
	// formRuns issues each run through CopyRun or ReduceRun.
	formRuns runForm = iota
	// formOps issues each op of a run through CopyElems, CombineElems or
	// AccumulateElems.
	formOps
	// formSplit does each op's data work on the rank's stack and then
	// charges each of its sub-charges as its own Load, Store or
	// ReduceFloor: the reference the other forms must match.
	formSplit
)

// foldOps calls yield with each op of ReduceRun(dst, dOff, srcs, sOff, n,
// slice), in order.
func foldOps(dst *memmodel.Buffer, dOff int64, srcs []*memmodel.Buffer, sOff, n, slice int64, yield func(memmodel.Op)) {
	for off := int64(0); off < n; off += slice {
		k := min(slice, n-off)
		if len(srcs) == 1 {
			yield(memmodel.Op{Kind: memmodel.CopyOp, Dst: dst, DOff: dOff + off, A: srcs[0], AOff: sOff + off, N: k})
			continue
		}
		yield(memmodel.Op{Kind: memmodel.CombineOp, Dst: dst, DOff: dOff + off, A: srcs[0], AOff: sOff + off, B: srcs[1], BOff: sOff + off, N: k})
		for _, s := range srcs[2:] {
			yield(memmodel.Op{Kind: memmodel.AccumulateOp, Dst: dst, DOff: dOff + off, A: s, AOff: sOff + off, N: k})
		}
	}
}

// reduce issues ReduceRun(dst, dOff, srcs, sOff, n, slice, Sum, kind) in
// the given form.
func reduce(r *Rank, form runForm, dst *memmodel.Buffer, dOff int64, srcs []*memmodel.Buffer, sOff, n, slice int64, kind memmodel.StoreKind) {
	if form == formRuns {
		r.ReduceRun(dst, dOff, srcs, sOff, n, slice, Sum, kind)
		return
	}
	m, core := r.machine.Model, r.Core()
	foldOps(dst, dOff, srcs, sOff, n, slice, func(o memmodel.Op) {
		if form == formOps {
			switch o.Kind {
			case memmodel.CopyOp:
				r.CopyElems(o.Dst, o.DOff, o.A, o.AOff, o.N, kind)
			case memmodel.CombineOp:
				r.CombineElems(o.Dst, o.DOff, o.A, o.AOff, o.B, o.BOff, o.N, Sum, kind)
			default:
				r.AccumulateElems(o.Dst, o.DOff, o.A, o.AOff, o.N, Sum, kind)
			}
			return
		}
		r.op = Sum
		(*opBody)(r).Do(&o)
		switch o.Kind {
		case memmodel.CopyOp:
			m.Load(r.proc, core, o.A, o.AOff, o.N)
		case memmodel.CombineOp:
			m.Load(r.proc, core, o.A, o.AOff, o.N)
			m.Load(r.proc, core, o.B, o.BOff, o.N)
		default:
			m.Load(r.proc, core, o.Dst, o.DOff, o.N)
			m.Load(r.proc, core, o.A, o.AOff, o.N)
		}
		m.Store(r.proc, core, o.Dst, o.DOff, o.N, kind)
		if o.Kind != memmodel.CopyOp {
			m.ReduceFloor(r.proc, o.N)
		}
	})
}

// runOutcome is everything a run-equivalence workload can observe.
type runOutcome struct {
	makespan float64
	err      string
	clocks   []float64
	counters memmodel.Counters
	counts   sim.Counts
	data     [][]float64
	events   []fault.Event
	trace    []byte
	folds    [][2]float64 // each rank's clock before and after its fold
}

// runWorkload runs sh on a 4-rank NodeA machine spanning both sockets: each
// rank copies its private send buffer into its shared segment, folds srcs
// segments into its block of a shared result, and copies the whole result
// out, each a run issued in the given form.
func runWorkload(t *testing.T, sh runShape, real bool, form runForm, plan *fault.Plan, traced bool) runOutcome {
	t.Helper()
	m := NewMachineWithBinding(topo.NodeA(), []int{0, 1, 32, 33}, real)
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	var tr *sim.Tracer
	if traced {
		tr = sim.NewTracer()
		m.Model.SetTracer(tr)
	}
	p := m.Size()
	out := runOutcome{folds: make([][2]float64, p)}
	bufs := make([]*memmodel.Buffer, 0, 2*p+1)
	w := m.World()
	segs := w.Segments(Key{Label: "run", Name: "seg%d"}, sh.n)
	res := w.Shared(Key{Label: "run", Name: "res"}, 0, sh.n*int64(p))
	bufs = append(append(bufs, segs...), res)
	rbs := make([]*memmodel.Buffer, p)
	body := func(r *Rank) {
		me := r.ID()
		sb := r.NewBuffer("sb", sh.n)
		r.FillPattern(sb, float64(me*1000)+0.5)
		rbs[me] = r.NewBuffer("rb", sh.n*int64(p))
		srcs := make([]*memmodel.Buffer, sh.srcs)
		for j := range srcs {
			srcs[j] = segs[(me+j)%p]
		}
		reduce(r, form, segs[me], 0, []*memmodel.Buffer{sb}, 0, sh.n, sh.slice, sh.kind)
		w.Barrier().Arrive(r.Proc())
		out.folds[me][0] = r.Now()
		reduce(r, form, res, int64(me)*sh.n, srcs, 0, sh.n, sh.slice, sh.kind)
		out.folds[me][1] = r.Now()
		w.Barrier().Arrive(r.Proc())
		if form == formRuns {
			r.CopyRun(rbs[me], 0, res, 0, sh.n*int64(p), sh.slice, sh.kind)
		} else {
			reduce(r, form, rbs[me], 0, []*memmodel.Buffer{res}, 0, sh.n*int64(p), sh.slice, sh.kind)
		}
	}
	var err error
	out.makespan, err = m.Run(body)
	if err != nil {
		out.err = err.(*RunError).Diagnose()
	}
	out.clocks = m.RankClocks()
	out.counters = m.Model.Counters()
	out.counts = m.RunCounts()
	if real {
		for _, b := range append(bufs, rbs...) {
			if b != nil {
				out.data = append(out.data, append([]float64(nil), b.Data...))
			}
		}
	}
	if inj := m.Injector(); inj != nil {
		out.events = append(out.events, inj.Events()...)
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.trace = buf.Bytes()
	}
	return out
}

// diffOutcomes reports the first observable difference between two forms
// of a workload, or "".
func diffOutcomes(got, want runOutcome) string {
	switch {
	case math.Float64bits(got.makespan) != math.Float64bits(want.makespan):
		return fmt.Sprintf("makespan %x, want %x", got.makespan, want.makespan)
	case got.err != want.err:
		return fmt.Sprintf("error\n%s\nwant\n%s", got.err, want.err)
	case !reflect.DeepEqual(got.clocks, want.clocks):
		return fmt.Sprintf("rank clocks %x, want %x", got.clocks, want.clocks)
	case got.counters != want.counters:
		return fmt.Sprintf("counters %+v, want %+v", got.counters, want.counters)
	case got.counts.Pops != want.counts.Pops:
		return fmt.Sprintf("%d run-queue pops, want %d (the schedule changed)", got.counts.Pops, want.counts.Pops)
	case !reflect.DeepEqual(got.data, want.data):
		return "buffer contents differ"
	case !reflect.DeepEqual(got.events, want.events):
		return fmt.Sprintf("fault events %v, want %v", got.events, want.events)
	case !bytes.Equal(got.trace, want.trace):
		return "trace JSON differs"
	}
	return ""
}

// TestRunsMatchPerOpLoops: CopyRun and ReduceRun charge a whole run as one
// sim.Charge, so the rank's coroutine resumes once per run, yet every
// observable — makespan, rank clocks, counters, the schedule's pop count,
// buffer contents — is that of the per-op loop, and both are that of the
// ops done on the rank's stack with one model call per sub-charge, over
// ragged tails, slices at or past n, both store kinds, 1-4 sources, and
// real and model-only buffers.
func TestRunsMatchPerOpLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, real := range []bool{false, true} {
		for srcs := 1; srcs <= 4; srcs++ {
			for _, kind := range []memmodel.StoreKind{memmodel.Temporal, memmodel.NonTemporal} {
				n := 512 + rng.Int63n(8192)
				var slice int64
				switch rng.Intn(3) {
				case 0: // ragged tail
					slice = n/int64(3+rng.Intn(12)) + 1
				case 1: // whole slices
					slice = n / 4
					n = 4 * slice
				default: // one slice
					slice = n + rng.Int63n(3)
				}
				sh := runShape{n: n, slice: slice, srcs: srcs, kind: kind}
				want := runWorkload(t, sh, real, formSplit, nil, false)
				if want.err != "" {
					t.Fatalf("%+v real=%v: %s", sh, real, want.err)
				}
				runs := runWorkload(t, sh, real, formRuns, nil, false)
				ops := runWorkload(t, sh, real, formOps, nil, false)
				if d := diffOutcomes(runs, want); d != "" {
					t.Fatalf("%+v real=%v: runs diverged from split ops: %s", sh, real, d)
				}
				if d := diffOutcomes(ops, want); d != "" {
					t.Fatalf("%+v real=%v: per-op loops diverged from split ops: %s", sh, real, d)
				}
				if runs.counts.Resumes >= ops.counts.Resumes && slice < n {
					t.Errorf("%+v real=%v: %d resumes, per-op loops %d: runs saved none", sh, real, runs.counts.Resumes, ops.counts.Resumes)
				}
			}
		}
	}
}

// TestRunsMatchPerOpLoopsUnderFaults: a straggler, a crash that fires
// inside a fold run, a bit flip on a shared write inside a copy-in run, and
// an attached tracer all observe a run exactly as they observe its per-op
// loop and its split ops, fault events, run errors and trace JSON
// included.
func TestRunsMatchPerOpLoopsUnderFaults(t *testing.T) {
	sh := runShape{n: 6000, slice: 1024, srcs: 3, kind: memmodel.Temporal}
	healthy := runWorkload(t, sh, true, formSplit, nil, false)
	fold := healthy.folds[1]
	cases := []struct {
		name   string
		plan   *fault.Plan
		traced bool
		check  func(o runOutcome) string
	}{
		{"straggler", &fault.Plan{Name: "slow", Stragglers: []fault.Straggler{{Rank: 2, Factor: 1.5}}}, false,
			func(o runOutcome) string {
				if o.makespan <= healthy.makespan {
					return "straggler did not slow the run"
				}
				return ""
			}},
		{"crash inside a run", &fault.Plan{Name: "crash", Stalls: []fault.Stall{{Rank: 1, At: (fold[0] + fold[1]) / 2, Crash: true}}}, false,
			func(o runOutcome) string {
				if o.err == "" {
					return "crash did not fail the run"
				}
				return ""
			}},
		{"bit flip inside a run", &fault.Plan{Name: "flip", Corruptions: []fault.Corruption{{Rank: 1, SharedWrite: 2, Elem: 7, Bit: 52}}}, false,
			func(o runOutcome) string {
				if len(o.events) != 1 || o.events[0].Kind != "bitflip" {
					return fmt.Sprintf("events %v, want one bit flip", o.events)
				}
				if reflect.DeepEqual(o.data, healthy.data) {
					return "the flip changed no data"
				}
				return ""
			}},
		{"tracer", nil, true,
			func(o runOutcome) string {
				if len(o.trace) == 0 {
					return "empty trace"
				}
				return ""
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runWorkload(t, sh, true, formSplit, tc.plan, tc.traced)
			if d := tc.check(want); d != "" {
				t.Fatal(d)
			}
			for _, form := range []runForm{formRuns, formOps} {
				if d := diffOutcomes(runWorkload(t, sh, true, form, tc.plan, tc.traced), want); d != "" {
					t.Fatalf("form %d diverged from split ops: %s", form, d)
				}
			}
		})
	}
}

// TestRunPrimitivesCheckRangesFirst: a run whose range ends past a buffer
// panics before its first op touches data or time.
func TestRunPrimitivesCheckRangesFirst(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, true)
	var before []float64
	_, err := m.Run(func(r *Rank) {
		a := r.NewBuffer("a", 100)
		b := r.NewBuffer("b", 64)
		r.FillPattern(a, 1)
		before = append([]float64(nil), b.Data...)
		defer func() {
			if r.Now() != 0 || !reflect.DeepEqual(b.Data, before) {
				t.Errorf("a rejected run charged t=%g or wrote data", r.Now())
			}
		}()
		r.ReduceRun(b, 0, []*memmodel.Buffer{a, a}, 0, 100, 8, Sum, memmodel.Temporal)
	})
	if err == nil {
		t.Fatal("an out-of-range run did not fail")
	}
}
