package sim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestToTicks(t *testing.T) {
	if got := ToTicks(1e-9); got != 1000 {
		t.Fatalf("1ns = %d ticks, want 1000", got)
	}
	if got := ToTicks(0); got != 0 {
		t.Fatalf("0s = %d ticks, want 0", got)
	}
	if got := ToTicks(2.5); got != Tick(2.5e12) {
		t.Fatalf("2.5s = %d ticks", got)
	}
	if s := Tick(3e12).Seconds(); s != 3.0 {
		t.Fatalf("3e12 ticks = %v s, want 3", s)
	}
	// A duration near the top of the tick range converts; anything past
	// it, infinite or not a number panics instead of wrapping negative.
	if got := ToTicks(9e6); got != Tick(9e18) {
		t.Fatalf("9e6s = %d ticks", got)
	}
	for _, sec := range []float64{-1e-9, math.NaN(), math.Inf(1), math.Inf(-1), 9.3e6, math.MaxFloat64} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("ToTicks(%v) did not panic", sec)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "invalid duration") {
					t.Fatalf("ToTicks(%v) panicked with %v, want an invalid duration", sec, r)
				}
			}()
			ToTicks(sec)
		}()
	}
}

// TestEventOrderGolden pins the (tick, seq) dispatch order: ties break by
// post order.
func TestEventOrderGolden(t *testing.T) {
	e := NewEventEngine()
	ticks := []Tick{5, 3, 5, 1, 3}
	for i, tk := range ticks {
		e.Post(tk, int32(i), 0)
	}
	var order []int32
	end := e.Run(func(_ Tick, actor, _ int32) { order = append(order, actor) })
	want := []int32{3, 1, 4, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if end != 5 {
		t.Fatalf("final time %d, want 5", end)
	}
	if e.Processed() != 5 {
		t.Fatalf("processed %d, want 5", e.Processed())
	}
}

// eventTrace runs a self-expanding cascade (each event spawns children from
// a deterministic LCG) and returns the full dispatch trace as bytes.
func eventTrace(seed uint64) []byte {
	var buf bytes.Buffer
	e := NewEventEngine()
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := int32(0); i < 16; i++ {
		e.Post(Tick(next(50)), i, 0)
	}
	budget := 2000
	e.Run(func(now Tick, actor, data int32) {
		fmt.Fprintf(&buf, "%d:%d:%d\n", now, actor, data)
		if budget > 0 && next(3) > 0 {
			budget--
			e.After(Tick(next(40)), actor+100, data+1)
		}
	})
	return buf.Bytes()
}

// TestEventDeterminism: same seed, byte-identical traces across runs.
func TestEventDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		a, b := eventTrace(seed), eventTrace(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: traces differ (%d vs %d bytes)", seed, len(a), len(b))
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
	if bytes.Equal(eventTrace(1), eventTrace(2)) {
		t.Fatal("different seeds produced identical traces (trace not sensitive)")
	}
}

func TestPostIntoPastPanics(t *testing.T) {
	e := NewEventEngine()
	e.Post(10, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("posting into the past did not panic")
		}
	}()
	e.Run(func(now Tick, _, _ int32) {
		e.Post(now-1, 1, 0)
	})
}

func TestRunReentryPanics(t *testing.T) {
	e := NewEventEngine()
	e.Post(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entering Run did not panic")
		}
	}()
	e.Run(func(Tick, int32, int32) {
		e.Run(func(Tick, int32, int32) {})
	})
}

// orderStream is one seeded post pattern for the differential order test:
// the ticks posted before Run, in post order, then the delays the handler
// draws from when it posts children (at most budget of them in total).
type orderStream struct {
	name    string
	initial []Tick
	delays  []Tick
	budget  int
}

// orderStreams builds the differential test's patterns from one seed.
func orderStreams(seed uint64) []orderStream {
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	burst := make([]Tick, 1<<16)
	for i := range burst {
		burst[i] = 10
	}
	alternate := make([]Tick, 2000)
	for i := range alternate {
		alternate[i] = Tick(3 + 2*(i%2))
	}
	scattered := make([]Tick, 500)
	for i := range scattered {
		scattered[i] = Tick(next(50))
	}
	return []orderStream{
		// A 64k same-tick burst whose handlers re-post in lockstep, so
		// each wavefront is one bucket filling while another drains.
		{"burst", burst, []Tick{7}, 3 << 16},
		// The same burst with a few stragglers breaking each run apart.
		{"burst-split", burst, []Tick{7, 7, 7, 7, 7, 7, 7, 9}, 3 << 16},
		// Two ticks posted alternately: every post opens a bucket and each
		// tick is split over many buckets.
		{"alternate", alternate, []Tick{0, 2}, 4000},
		// Zero-delay posts land at now, in the bucket being drained or in
		// a new bucket of the current tick behind a closed one.
		{"zero-delay", scattered, []Tick{0, 0, 0, 1}, 5000},
		// Posts at now and later interleaved while a bucket drains: the
		// draining bucket is closed and the current tick reopened.
		{"drain", scattered, []Tick{0, 5, 0, 0, 5}, 5000},
		{"scattered", scattered, []Tick{0, 1, 2, 3, 5, 8, 13, 21, 34}, 5000},
	}
}

// TestEventOrderDifferential checks the calendar against a reference: since
// no event is posted before the current tick, dispatch order must be every
// posted event stable-sorted by tick in post order, handler posts included.
func TestEventOrderDifferential(t *testing.T) {
	type posted struct {
		tick  Tick
		actor int32
	}
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		for _, st := range orderStreams(seed) {
			rng := seed ^ 0x9e3779b97f4a7c15
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			e := NewEventEngine()
			var posts, got []posted
			post := func(tk Tick) {
				actor := int32(len(posts))
				posts = append(posts, posted{tk, actor})
				e.Post(tk, actor, -actor)
			}
			for _, tk := range st.initial {
				post(tk)
			}
			budget := st.budget
			e.Run(func(now Tick, actor, data int32) {
				if data != -actor {
					t.Fatalf("%s/%d: actor %d carried data %d", st.name, seed, actor, data)
				}
				got = append(got, posted{now, actor})
				for k := next(3); k > 0 && budget > 0; k-- {
					budget--
					post(now + st.delays[next(uint64(len(st.delays)))])
				}
			})
			want := append([]posted(nil), posts...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].tick < want[j].tick })
			if len(got) != len(want) {
				t.Fatalf("%s/%d: dispatched %d of %d events", st.name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%d: dispatch %d is %+v, want %+v", st.name, seed, i, got[i], want[i])
				}
			}
			if e.Pending() != 0 || e.Processed() != uint64(len(want)) {
				t.Fatalf("%s/%d: pending %d, processed %d of %d", st.name, seed, e.Pending(), e.Processed(), len(want))
			}
		}
	}
}

// BenchmarkEventPostPop keeps a rolling calendar of 1024 events
// (cluster-typical depth): each dispatched event posts one more at a spread
// of offsets, so nearly every post opens its own bucket — the calendar's
// worst case.
func BenchmarkEventPostPop(b *testing.B) {
	e := NewEventEngine()
	for i := 0; i < 1024; i++ {
		e.Post(Tick(i%97), int32(i), 0)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func(now Tick, actor, _ int32) {
		if n > 0 {
			n--
			e.Post(now+Tick(n%97), actor, 0)
		}
	})
}
