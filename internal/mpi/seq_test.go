package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// seqShape is one sequence-equivalence workload: slots of n elements whose
// send-buffer data ends at end (cutting the last slots short), copies with
// the given store kind, and p2p messages of msg elements.
type seqShape struct {
	n, end, msg int64
	kind        memmodel.StoreKind
}

// sendOps is Send as a loop of one CopyElems and one produced Set per
// chunk, each issued on the rank's stack.
func sendOps(r *Rank, c *Comm, dst int, buf *memmodel.Buffer, off, n int64) {
	ch := c.channel(c.mustRank(r), dst)
	if ch.msgsSent > 0 {
		ch.consumed.Wait(r.proc, r.Core(), uint64(ch.msgsSent))
	}
	c.fit(ch, n)
	for done := int64(0); done < n; done += ch.chunk {
		r.CopyElems(ch.staging, done, buf, off+done, min(ch.chunk, n-done), memmodel.Temporal)
		ch.sent++
		ch.produced.Set(r.proc, uint64(ch.sent))
	}
	ch.msgsSent++
}

// recvOps is a receive as a loop of one produced Wait and one op per chunk,
// then the consumed Set: o is the op over the whole message with staging
// as A (or as B's partner A for a combine), as recvCommon takes it.
func recvOps(r *Rank, c *Comm, src int, o memmodel.Op, kind memmodel.StoreKind, op Op) {
	ch := c.channel(src, c.mustRank(r))
	n := o.N
	c.fit(ch, n)
	for done := int64(0); done < n; done += ch.chunk {
		k := min(ch.chunk, n-done)
		ch.produced.Wait(r.proc, r.Core(), uint64(ch.rcvd+1))
		switch o.Kind {
		case memmodel.CopyOp:
			r.CopyElems(o.Dst, o.DOff+done, ch.staging, done, k, kind)
		case memmodel.AccumulateOp:
			r.AccumulateElems(o.Dst, o.DOff+done, ch.staging, done, k, op, kind)
		default:
			r.CombineElems(o.Dst, o.DOff+done, ch.staging, done, o.B, o.BOff+done, k, op, kind)
		}
		ch.rcvd++
	}
	ch.msgsRcvd++
	ch.consumed.Set(r.proc, uint64(ch.msgsRcvd))
}

// seqOutcome is a workload's runOutcome plus, from the per-op form, each
// rank's waits that blocked, as (clock before, clock after) pairs.
type seqOutcome struct {
	runOutcome
	blocked [][][2]float64
}

// seqWorkload runs sh on a 4-rank NodeA machine spanning both sockets.
// Each rank makes two MA-style chain passes over a shared segment (each
// step a wait on the next rank's flag, a copy-in, accumulate or final
// combine, and a set of its own flag), copies every slot out in rotated
// order after each, and then sends its send buffer around the ring three
// times, received by RecvReduce, Recv and RecvCombine. With seq the chain
// passes and copy-outs are sequences and the p2p calls are Rank's;
// otherwise every wait, op and set is issued on the rank's stack.
func seqWorkload(t *testing.T, sh seqShape, real, seq bool, plan *fault.Plan, traced bool) seqOutcome {
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
	const p = 4
	w := m.World()
	shmBuf := w.Shared(Key{Label: "seq", Name: "shm"}, 0, sh.n*p)
	flags := w.Flags(Key{Label: "seq", Name: "flags"})
	out := seqOutcome{runOutcome: runOutcome{folds: make([][2]float64, p)}, blocked: make([][][2]float64, p)}
	rbs := make([]*memmodel.Buffer, p)
	body := func(r *Rank) {
		me := r.ID()
		sb := r.NewBuffer("sb", sh.n*p)
		r.FillPattern(sb, float64(me*1000)+0.5)
		rb := r.NewBuffer("rb", sh.n*p)
		rbs[me] = rb
		next, prev := (me+1)%p, (me+p-1)%p
		slotLen := func(l int) int64 { return max(min(sh.n, sh.end-int64(l)*sh.n), 0) }
		for pass := 0; pass < 2; pass++ {
			base := uint64(pass * p)
			if seq {
				s := r.Seq(Sum)
				s.Add(memmodel.Part{
					Count: p - 1, Rot: me + 1, Mod: p,
					Wait: flags[next].Sync(), WaitVal: base, Set: flags[me].Sync(), SetVal: base + 1,
					Op:      memmodel.Op{Kind: memmodel.AccumulateOp, Dst: shmBuf, A: sb, N: sh.n},
					DStride: sh.n, AStride: sh.n, AEnd: sh.end,
					CopyFirst: true, FirstKind: sh.kind, FirstTailKind: sh.kind,
				})
				s.Add(memmodel.Part{
					Count: 1,
					Wait:  flags[next].Sync(), WaitVal: base + p - 1, Set: flags[me].Sync(), SetVal: base + p,
					Op: memmodel.Op{Kind: memmodel.CombineOp, Dst: rb, DOff: int64(me) * sh.n, A: shmBuf, AOff: int64(me) * sh.n,
						B: sb, BOff: int64(me) * sh.n, N: slotLen(me)},
				})
				s.Charge()
			} else {
				for j := 0; j < p; j++ {
					l := (me + j + 1) % p
					before := r.Now()
					flags[next].Wait(r.proc, r.Core(), base+uint64(j))
					if d := r.Now() - before; d > m.Model.SyncLatency(r.Core(), w.CoreOf(next)) {
						out.blocked[me] = append(out.blocked[me], [2]float64{before, r.Now()})
					}
					off, n := int64(l)*sh.n, slotLen(l)
					switch {
					case j == 0:
						r.CopyElems(shmBuf, off, sb, off, n, sh.kind)
					case j < p-1:
						r.AccumulateElems(shmBuf, off, sb, off, n, Sum, memmodel.Temporal)
					default:
						r.CombineElems(rb, off, shmBuf, off, sb, off, n, Sum, memmodel.Temporal)
					}
					flags[me].Set(r.proc, base+uint64(j)+1)
				}
			}
			w.Barrier().Arrive(r.Proc())
			if seq {
				s := r.Seq(Op{})
				s.Add(memmodel.Part{
					Count: p, Rot: me, Mod: p,
					Op:      memmodel.Op{Kind: memmodel.CopyOp, Dst: rb, A: shmBuf, N: sh.n},
					DStride: sh.n, AStride: sh.n, DEnd: sh.end, Kind: sh.kind, TailKind: sh.kind,
				})
				s.Charge()
			} else {
				for j := 0; j < p; j++ {
					l := (me + j) % p
					r.CopyElems(rb, int64(l)*sh.n, shmBuf, int64(l)*sh.n, max(min(sh.n, sh.end-int64(l)*sh.n), 0), sh.kind)
				}
			}
			w.Barrier().Arrive(r.Proc())
		}
		out.folds[me][0] = r.Now()
		for k := 0; k < 3; k++ {
			if seq {
				r.Send(w, next, sb, 0, sh.msg)
			} else {
				sendOps(r, w, next, sb, 0, sh.msg)
			}
			o := memmodel.Op{Kind: memmodel.AccumulateOp, Dst: rb, N: sh.msg}
			kind := memmodel.Temporal
			switch k {
			case 1:
				o.Kind, kind = memmodel.CopyOp, sh.kind
			case 2:
				o.Kind, o.B, o.BOff = memmodel.CombineOp, sb, 1
			}
			if seq {
				r.recvCommon(w, prev, o, kind, Sum)
			} else {
				recvOps(r, w, prev, o, kind, Sum)
			}
		}
		out.folds[me][1] = r.Now()
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
		for _, b := range append([]*memmodel.Buffer{shmBuf}, rbs...) {
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

// TestSequencesMatchPerOpLoops: chain passes, rotated copy-outs and p2p
// receives charged as sequences — waits, ops and sets as one sim.Charge —
// resume each rank's coroutine far less, yet every observable (makespan,
// rank clocks, counters with the sync count, the schedule's pop count,
// buffer contents) is that of the waits, ops and sets issued one by one,
// over slots cut short or to nothing, both store kinds, one- and
// multi-chunk messages, and real and model-only buffers.
func TestSequencesMatchPerOpLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, real := range []bool{false, true} {
		for _, kind := range []memmodel.StoreKind{memmodel.Temporal, memmodel.NonTemporal} {
			for trial := 0; trial < 3; trial++ {
				n := 64 + rng.Int63n(4096)
				sh := seqShape{n: n, end: 4 * n, msg: 1 + rng.Int63n(3*DefaultP2PChunkElems), kind: kind}
				switch trial {
				case 1: // the last slot cut short
					sh.end -= 1 + rng.Int63n(n-1)
				case 2: // the last slots cut to nothing or short
					sh.end = n + rng.Int63n(n)
				}
				sh.msg = min(sh.msg, 4*n-1)
				want := seqWorkload(t, sh, real, false, nil, false)
				if want.err != "" {
					t.Fatalf("%+v real=%v: %s", sh, real, want.err)
				}
				got := seqWorkload(t, sh, real, true, nil, false)
				if d := diffOutcomes(got.runOutcome, want.runOutcome); d != "" {
					t.Fatalf("%+v real=%v: sequences diverged from per-op loops: %s", sh, real, d)
				}
				if got.counters.SyncCount == 0 || got.counts.Resumes >= want.counts.Resumes {
					t.Errorf("%+v real=%v: %d resumes and %d syncs, per-op loops %d resumes: sequences saved none",
						sh, real, got.counts.Resumes, got.counters.SyncCount, want.counts.Resumes)
				}
			}
		}
	}
}

// TestSequencesMatchPerOpLoopsUnderFaults: a straggler, a crash that fires
// when a rank blocked in a chain wait resumes, a bit flip of a shared
// write inside a chain op, and an attached tracer all observe sequences
// exactly as they observe the per-op loops, fault events, run errors and
// trace JSON included.
func TestSequencesMatchPerOpLoopsUnderFaults(t *testing.T) {
	sh := seqShape{n: 6000, end: 22000, msg: 20000, kind: memmodel.Temporal}
	healthy := seqWorkload(t, sh, true, false, nil, false)
	if len(healthy.blocked[1]) == 0 {
		t.Fatal("rank 1 never blocked in a chain wait")
	}
	wait := healthy.blocked[1][0]
	cases := []struct {
		name   string
		plan   *fault.Plan
		traced bool
		check  func(o seqOutcome) string
	}{
		{"straggler", &fault.Plan{Name: "slow", Stragglers: []fault.Straggler{{Rank: 2, Factor: 1.5}}}, false,
			func(o seqOutcome) string {
				if o.makespan <= healthy.makespan {
					return "straggler did not slow the run"
				}
				return ""
			}},
		{"crash while blocked in a wait", &fault.Plan{Name: "crash", Stalls: []fault.Stall{{Rank: 1, At: (wait[0] + wait[1]) / 2, Crash: true}}}, false,
			func(o seqOutcome) string {
				if o.err == "" {
					return "crash did not fail the run"
				}
				return ""
			}},
		{"bit flip inside a sequence op", &fault.Plan{Name: "flip", Corruptions: []fault.Corruption{{Rank: 1, SharedWrite: 5, Elem: 5, Bit: 52}}}, false,
			func(o seqOutcome) string {
				if len(o.events) != 1 || o.events[0].Kind != "bitflip" {
					return fmt.Sprintf("events %v, want one bit flip", o.events)
				}
				if reflect.DeepEqual(o.data, healthy.data) {
					return "the flip changed no data"
				}
				return ""
			}},
		{"tracer", nil, true,
			func(o seqOutcome) string {
				if len(o.trace) == 0 {
					return "empty trace"
				}
				return ""
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := seqWorkload(t, sh, true, false, tc.plan, tc.traced)
			if d := tc.check(want); d != "" {
				t.Fatal(d)
			}
			if d := diffOutcomes(seqWorkload(t, sh, true, true, tc.plan, tc.traced).runOutcome, want.runOutcome); d != "" {
				t.Fatalf("sequences diverged from per-op loops: %s", d)
			}
		})
	}
}

// TestSequenceWaitNobodySetsIsDiagnosed: a rank whose sequence waits on a
// flag nobody sets is named by the run's deadlock diagnosis, with the flag
// and the value it waits for.
func TestSequenceWaitNobodySetsIsDiagnosed(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	_, err := m.Run(func(r *Rank) {
		if r.ID() != 1 {
			return
		}
		w := r.World()
		f := w.Flags(Key{Label: "seq", Name: "never"})
		buf := r.NewBuffer("b", 64)
		s := r.Seq(Op{})
		s.Add(memmodel.Part{Count: 2, Wait: f[0].Sync(), WaitVal: 1,
			Op: memmodel.Op{Kind: memmodel.CopyOp, Dst: buf, A: buf, AOff: 32, N: 32}})
		s.Charge()
	})
	var de *sim.DeadlockError
	if !errors.As(err, &de) || len(de.Blocked) != 1 || de.Blocked[0].Name != "rank1" ||
		de.Blocked[0].Reason != `flag "world/seq/never[0]" >= 1 (now 0)` {
		t.Fatalf("error %v, want a deadlock naming rank1 blocked on world/seq/never[0] >= 1", err)
	}
}
