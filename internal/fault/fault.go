// Package fault is a deterministic, seed-driven fault-plan engine for the
// simulated collectives. A Plan is a replayable description of what goes
// wrong during one machine run: which ranks run slow (stragglers), which
// rank stalls or crashes at a chosen virtual time, and which shared-memory
// write gets a bit flipped. Plans are plain data — no wall-clock randomness
// is involved anywhere, so a run under a given plan is bit-identical every
// time, and the golden determinism suite is untouched when no plan is set.
//
// The package deliberately knows nothing about MPI or collectives: the mpi
// machine consumes a Plan through an Injector, translating stragglers into
// sim.Proc slowdown factors, stalls into sim virtual-time stall events, and
// corruptions into bit flips applied on a victim rank's Nth shared-memory
// write. Everything the injector actually did during a run is recorded in
// an event log for diagnosis.
package fault

import (
	"fmt"
	"math"
	"sort"
)

// Straggler slows one rank down: every virtual-time charge on the rank's
// proc is multiplied by Factor (> 1 means slower; the paper's skewed-arrival
// scenario).
type Straggler struct {
	Rank   int
	Factor float64
}

// Stall freezes one rank at virtual time At. With Crash false the rank
// blocks forever (the run ends in a diagnosed deadlock naming the rank);
// with Crash true the rank panics with an attributed injected-crash error.
type Stall struct {
	Rank  int
	At    float64
	Crash bool
}

// Corruption flips bit Bit of float64 element Elem during the victim rank's
// SharedWrite'th write into shared memory (0-based, counted per run). The
// flip lands after the rank computes its store values and before any peer
// can read them, modelling silent datapath corruption in a shared buffer.
type Corruption struct {
	Rank        int
	SharedWrite uint64
	Elem        int
	Bit         uint // 0..63; bit of the IEEE-754 representation
}

// Plan is a complete, replayable fault scenario for one run.
type Plan struct {
	Name        string
	Seed        uint64 // seed the plan was generated from, 0 if hand-written
	Stragglers  []Straggler
	Stalls      []Stall
	Corruptions []Corruption
}

// Empty reports whether the plan injects nothing.
func (pl *Plan) Empty() bool {
	return pl == nil || (len(pl.Stragglers) == 0 && len(pl.Stalls) == 0 && len(pl.Corruptions) == 0)
}

// String renders a compact human-readable summary of the plan.
func (pl *Plan) String() string {
	if pl.Empty() {
		return "fault: empty plan"
	}
	s := fmt.Sprintf("fault plan %q:", pl.Name)
	for _, st := range pl.Stragglers {
		s += fmt.Sprintf(" straggler(rank%d x%g)", st.Rank, st.Factor)
	}
	for _, st := range pl.Stalls {
		kind := "stall"
		if st.Crash {
			kind = "crash"
		}
		s += fmt.Sprintf(" %s(rank%d at t=%g)", kind, st.Rank, st.At)
	}
	for _, c := range pl.Corruptions {
		s += fmt.Sprintf(" bitflip(rank%d write#%d elem%d bit%d)", c.Rank, c.SharedWrite, c.Elem, c.Bit)
	}
	return s
}

// Validate checks the plan against a world of the given size, rejecting
// out-of-range ranks and non-finite or non-positive parameters before they
// can produce a confusing run.
func (pl *Plan) Validate(ranks int) error {
	if pl == nil {
		return nil
	}
	for _, s := range pl.Stragglers {
		if s.Rank < 0 || s.Rank >= ranks {
			return fmt.Errorf("%w: straggler rank %d outside world of %d", ErrPlanRange, s.Rank, ranks)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("fault: straggler rank %d has invalid factor %v", s.Rank, s.Factor)
		}
	}
	for _, s := range pl.Stalls {
		if s.Rank < 0 || s.Rank >= ranks {
			return fmt.Errorf("%w: stall rank %d outside world of %d", ErrPlanRange, s.Rank, ranks)
		}
		if s.At < 0 || math.IsNaN(s.At) {
			return fmt.Errorf("fault: stall rank %d at invalid time %v", s.Rank, s.At)
		}
	}
	for _, c := range pl.Corruptions {
		if c.Rank < 0 || c.Rank >= ranks {
			return fmt.Errorf("%w: corruption rank %d outside world of %d", ErrPlanRange, c.Rank, ranks)
		}
		if c.Elem < 0 {
			return fmt.Errorf("fault: corruption rank %d has negative element %d", c.Rank, c.Elem)
		}
		if c.Bit > 63 {
			return fmt.Errorf("fault: corruption rank %d flips bit %d (want 0..63)", c.Rank, c.Bit)
		}
	}
	return nil
}

// Class buckets a plan by the fault kinds it contains: "healthy" for an
// empty plan, one of "straggler", "stall", "crash", "bitflip" when a single
// kind is present, and "mixed" otherwise. The recovery gate is keyed per
// class: transient classes (bitflip) and slow-core classes (straggler) must
// always be recoverable, while mixed seeded plans are only required to end
// diagnosed.
func (pl *Plan) Class() string {
	if pl.Empty() {
		return "healthy"
	}
	kinds := make(map[string]bool, 3)
	if len(pl.Stragglers) > 0 {
		kinds["straggler"] = true
	}
	for _, s := range pl.Stalls {
		if s.Crash {
			kinds["crash"] = true
		} else {
			kinds["stall"] = true
		}
	}
	if len(pl.Corruptions) > 0 {
		kinds["bitflip"] = true
	}
	if len(kinds) != 1 {
		return "mixed"
	}
	for k := range kinds {
		return k
	}
	return "mixed"
}

// Victims returns the sorted, deduplicated set of ranks the plan targets.
func (pl *Plan) Victims() []int {
	if pl.Empty() {
		return nil
	}
	seen := map[int]bool{}
	for _, s := range pl.Stragglers {
		seen[s.Rank] = true
	}
	for _, s := range pl.Stalls {
		seen[s.Rank] = true
	}
	for _, c := range pl.Corruptions {
		seen[c.Rank] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Restrict maps the plan onto a shrunken world: survivors lists the old rank
// ids that remain, in their new order, so a fault on survivors[i] is
// renumbered to rank i and faults on excluded ranks are dropped. This is how
// a supervisor re-arms a plan after a ULFM-style communicator shrink — the
// surviving faults keep firing, the dead rank's faults die with it.
func (pl *Plan) Restrict(survivors []int) *Plan {
	if pl.Empty() {
		return nil
	}
	newRank := make(map[int]int, len(survivors))
	for i, r := range survivors {
		newRank[r] = i
	}
	out := &Plan{Name: pl.Name, Seed: pl.Seed}
	for _, s := range pl.Stragglers {
		if nr, ok := newRank[s.Rank]; ok {
			s.Rank = nr
			out.Stragglers = append(out.Stragglers, s)
		}
	}
	for _, s := range pl.Stalls {
		if nr, ok := newRank[s.Rank]; ok {
			s.Rank = nr
			out.Stalls = append(out.Stalls, s)
		}
	}
	for _, c := range pl.Corruptions {
		if nr, ok := newRank[c.Rank]; ok {
			c.Rank = nr
			out.Corruptions = append(out.Corruptions, c)
		}
	}
	return out
}

// WithoutFiredCorruptions returns a copy of the plan with the corruption
// dropped for every rank an event log shows already received its bit flip.
// This is the transient-fault semantics supervised retry relies on: a
// transient flip that landed once does not land again on the retry, so the
// retried run can complete with a verified-correct result.
func (pl *Plan) WithoutFiredCorruptions(events []Event) *Plan {
	if pl.Empty() {
		return pl
	}
	fired := map[int]bool{}
	for _, ev := range events {
		if ev.Kind == "bitflip" {
			fired[ev.Rank] = true
		}
	}
	if len(fired) == 0 {
		return pl
	}
	out := &Plan{Name: pl.Name, Seed: pl.Seed,
		Stragglers: pl.Stragglers, Stalls: pl.Stalls}
	for _, c := range pl.Corruptions {
		if !fired[c.Rank] {
			out.Corruptions = append(out.Corruptions, c)
		}
	}
	return out
}

// WithoutStraggler returns a copy of the plan with the given rank's
// straggler dropped — used after a quarantine remaps the rank off its slow
// core, so a later re-arming of the plan does not chase the rank onto its
// healthy spare.
func (pl *Plan) WithoutStraggler(rank int) *Plan {
	if pl.Empty() {
		return pl
	}
	out := &Plan{Name: pl.Name, Seed: pl.Seed,
		Stalls: pl.Stalls, Corruptions: pl.Corruptions}
	for _, s := range pl.Stragglers {
		if s.Rank != rank {
			out.Stragglers = append(out.Stragglers, s)
		}
	}
	return out
}

// Event records one fault the injector actually fired during a run, for
// post-mortem diagnosis ("was the wrong answer the injected flip, or a real
// bug?").
type Event struct {
	Kind   string // "straggler", "stall", "crash", "bitflip"
	Rank   int
	Clock  float64 // virtual time the fault fired (stragglers: 0, armed at spawn)
	Detail string
}

func (ev Event) String() string {
	return fmt.Sprintf("%s rank%d at t=%g: %s", ev.Kind, ev.Rank, ev.Clock, ev.Detail)
}

// Injector applies one Plan to one machine run. It keeps the per-run mutable
// state — shared-write counters per rank and the fired-event log — so a
// single Plan can drive many runs by calling BeginRun before each.
//
// The simulator is single-threaded by construction (procs are coroutines),
// so the injector needs no locking.
type Injector struct {
	plan        *Plan
	writeCounts []uint64
	events      []Event
}

// NewInjector builds an injector for the plan (which may be nil or empty:
// every hook then becomes a no-op answer).
func NewInjector(plan *Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the plan the injector applies.
func (in *Injector) Plan() *Plan { return in.plan }

// BeginRun resets the per-run state for a world of the given size.
func (in *Injector) BeginRun(ranks int) {
	if cap(in.writeCounts) < ranks {
		in.writeCounts = make([]uint64, ranks)
	} else {
		in.writeCounts = in.writeCounts[:ranks]
		for i := range in.writeCounts {
			in.writeCounts[i] = 0
		}
	}
	in.events = in.events[:0]
}

// LogStraggler records that a straggler slowdown was armed on the given
// rank. The machine layer arms slowdowns by physical core (so quarantining
// a rank onto a spare core escapes them) and reports the firing here.
func (in *Injector) LogStraggler(rank int, factor float64) {
	in.log(Event{Kind: "straggler", Rank: rank,
		Detail: fmt.Sprintf("virtual time stretched x%g", factor)})
}

// StallFor returns the stall scheduled for rank, if any.
func (in *Injector) StallFor(rank int) (Stall, bool) {
	if in.plan == nil {
		return Stall{}, false
	}
	for _, s := range in.plan.Stalls {
		if s.Rank == rank {
			kind := "stall"
			if s.Crash {
				kind = "crash"
			}
			in.log(Event{Kind: kind, Rank: rank, Clock: s.At,
				Detail: fmt.Sprintf("armed for t=%g", s.At)})
			return s, true
		}
	}
	return Stall{}, false
}

// CorruptShared is called by the mpi layer after rank writes n elements of
// data into a shared-memory buffer at virtual time now. It advances the
// rank's write counter and, if a corruption in the plan matches this write,
// flips the planned bit of the planned element (clamped into the write's
// length) in place. Returns true if a flip landed.
func (in *Injector) CorruptShared(rank int, now float64, bufName string, data []float64) bool {
	if in.plan == nil || len(in.plan.Corruptions) == 0 {
		return false
	}
	if rank >= len(in.writeCounts) {
		// BeginRun not called for a world this large; count nothing.
		return false
	}
	seq := in.writeCounts[rank]
	in.writeCounts[rank]++
	flipped := false
	for _, c := range in.plan.Corruptions {
		if c.Rank != rank || c.SharedWrite != seq || len(data) == 0 {
			continue
		}
		elem := c.Elem % len(data)
		bits := math.Float64bits(data[elem]) ^ (1 << c.Bit)
		data[elem] = math.Float64frombits(bits)
		in.log(Event{Kind: "bitflip", Rank: rank, Clock: now,
			Detail: fmt.Sprintf("buffer %q write#%d elem %d bit %d", bufName, seq, elem, c.Bit)})
		flipped = true
	}
	return flipped
}

// Events returns what actually fired this run, in firing order.
func (in *Injector) Events() []Event { return in.events }

func (in *Injector) log(ev Event) { in.events = append(in.events, ev) }

// splitmix64 is the standard 64-bit mixing PRNG step; small, seedable, and
// entirely deterministic — exactly what replayable plan generation needs.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a6cabf4b9d89
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n).
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// GenPlan derives a replayable fault plan from a seed for a world of the
// given size. The same (seed, ranks, horizon) always yields the same plan.
// Roughly: each seed picks one or two fault kinds; stragglers get factors
// in [1.5, 8), stalls land uniformly inside the virtual-time horizon, and
// bit flips target an early shared write with a mantissa-or-exponent bit.
// Victim ranks are distinct across the kinds so diagnoses stay readable.
func GenPlan(seed uint64, ranks int, horizon float64) *Plan {
	if ranks <= 0 {
		return &Plan{Name: fmt.Sprintf("seed%d", seed), Seed: seed}
	}
	rng := splitmix64(seed)
	rng.next() // decorrelate consecutive seeds
	pl := &Plan{Name: fmt.Sprintf("seed%d", seed), Seed: seed}

	victims := rng.intn(ranks) // base offset; kinds pick distinct offsets from it
	victim := func(k int) int { return (victims + k) % ranks }

	kinds := 1 + rng.intn(2)
	for k := 0; k < kinds; k++ {
		switch rng.intn(3) {
		case 0:
			pl.Stragglers = append(pl.Stragglers, Straggler{
				Rank:   victim(k),
				Factor: 1.5 + 6.5*rng.float64(),
			})
		case 1:
			crash := rng.intn(4) == 0 // crashes rarer than stalls
			pl.Stalls = append(pl.Stalls, Stall{
				Rank:  victim(k),
				At:    rng.float64() * horizon,
				Crash: crash,
			})
		case 2:
			pl.Corruptions = append(pl.Corruptions, Corruption{
				Rank:        victim(k),
				SharedWrite: uint64(rng.intn(8)),
				Elem:        rng.intn(1 << 12),
				Bit:         uint(rng.intn(64)),
			})
		}
	}
	dedupe(pl)
	return pl
}

// dedupe keeps at most one fault of each kind per rank (later generations
// can collide when kinds pick the same victim) and orders faults by rank so
// plan rendering is stable.
func dedupe(pl *Plan) {
	seenS := map[int]bool{}
	str := pl.Stragglers[:0]
	for _, s := range pl.Stragglers {
		if !seenS[s.Rank] {
			seenS[s.Rank] = true
			str = append(str, s)
		}
	}
	pl.Stragglers = str
	seenT := map[int]bool{}
	st := pl.Stalls[:0]
	for _, s := range pl.Stalls {
		if !seenT[s.Rank] {
			seenT[s.Rank] = true
			st = append(st, s)
		}
	}
	pl.Stalls = st
	seenC := map[int]bool{}
	cor := pl.Corruptions[:0]
	for _, c := range pl.Corruptions {
		if !seenC[c.Rank] {
			seenC[c.Rank] = true
			cor = append(cor, c)
		}
	}
	pl.Corruptions = cor
	sort.Slice(pl.Stragglers, func(i, j int) bool { return pl.Stragglers[i].Rank < pl.Stragglers[j].Rank })
	sort.Slice(pl.Stalls, func(i, j int) bool { return pl.Stalls[i].Rank < pl.Stalls[j].Rank })
	sort.Slice(pl.Corruptions, func(i, j int) bool { return pl.Corruptions[i].Rank < pl.Corruptions[j].Rank })
}
