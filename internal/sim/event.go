// Event-calendar simulation core.
//
// The coroutine engine (engine.go) spends one goroutine stack per simulated
// process — fast per switch, but memory-bound at a few thousand procs. The
// event engine in this file is the scale substrate: virtual time is an
// integer 64-bit tick clock, pending work lives in one central calendar, and
// the simulated entities are compact state machines that post events instead
// of blocking coroutines. Memory per actor is flat — a few words of state
// plus at most one calendar entry — and no goroutines are created, so
// cluster-scale worlds (16k–1M ranks) fit in one process.
//
// The calendar is tick-bucketed. Lockstep schedules (every rank of every
// node running the same wavefront step) complete thousands of events on one
// tick, so a run of back-to-back posts with the same tick shares one FIFO
// bucket, and only the buckets sit in a (tick, seq)-ordered 4-ary heap.
// Popping an event takes the front of the earliest bucket and touches the
// heap only when that bucket empties, where a heap of one entry per pending
// event would sift on every pop.
//
// Determinism: events are totally ordered by (tick, seq), where seq is the
// post order. Ticks are integers, so there is no float accumulation and the
// calendar pop sequence is a pure function of the posted events, exactly as
// the coroutine engine's (clock, seq) heap key is.
package sim

import (
	"fmt"
	"math"
)

// Tick is integer virtual time. One tick is one picosecond, so a 64-bit
// tick clock spans ~106 days of simulated time — far beyond any sweep —
// while still resolving sub-nanosecond cost-model terms exactly.
type Tick int64

// TicksPerSecond converts between seconds (the coroutine engine's float
// clock unit) and ticks.
const TicksPerSecond = 1e12

// ToTicks converts a duration in seconds to the nearest tick. Negative,
// NaN, infinite and overflowing durations (beyond the ~106-day tick range)
// panic: the cost model must never produce one.
func ToTicks(sec float64) Tick {
	x := math.Round(sec * TicksPerSecond)
	// Written negated so that NaN fails the range check too.
	if sec < 0 || !(x < 1<<63) {
		panic(fmt.Sprintf("sim: invalid duration %v s", sec))
	}
	return Tick(x)
}

// Seconds converts a tick count back to seconds.
func (t Tick) Seconds() float64 { return float64(t) / TicksPerSecond }

// EventEngine is a discrete-event simulator core: a central calendar of
// (tick, seq)-ordered events dispatched to a handler. Actors are identified
// by dense int32 ids; the 32-bit data word rides along for the handler's
// use. The engine holds no per-actor state — callers own it — so the
// per-actor footprint is exactly what the caller's state machine needs.
type EventEngine struct {
	// The calendar: the open bucket (the most recently opened one, which
	// same-tick posts extend), the heap of closed buckets, and the item
	// arena holding every bucket's FIFO links.
	open    eventBucket
	closed  eventHeap
	items   []eventItem
	free    int32 // head of the recycled-item list, -1 when empty
	pending int

	seqGen    uint64
	now       Tick
	processed uint64
	running   bool
}

// NewEventEngine returns an empty engine at tick 0.
func NewEventEngine() *EventEngine {
	return &EventEngine{open: eventBucket{head: -1}, free: -1}
}

// Now returns the current virtual time (the tick of the event being
// processed, 0 before Run).
func (e *EventEngine) Now() Tick { return e.now }

// Processed returns how many events have been dispatched.
func (e *EventEngine) Processed() uint64 { return e.processed }

// Pending returns how many events are waiting in the calendar.
func (e *EventEngine) Pending() int { return e.pending }

// Post schedules an event for the given actor at absolute tick t. Posting
// into the past panics: virtual time only moves forward.
//
// The event joins the open bucket when that bucket is non-empty and has
// tick t: no bucket was opened after it, and every earlier bucket of tick t
// holds smaller seqs only, so appending keeps (tick, seq) order. Otherwise
// the open bucket is closed into the heap and a new one opens.
func (e *EventEngine) Post(t Tick, actor, data int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event posted into the past (t=%d, now=%d)", t, e.now))
	}
	e.seqGen++
	e.pending++
	i := e.free
	if i >= 0 {
		e.free = e.items[i].next
		e.items[i] = eventItem{actor: actor, data: data, next: -1}
	} else {
		if len(e.items) == math.MaxInt32 {
			panic("sim: event calendar full")
		}
		i = int32(len(e.items))
		e.items = append(e.items, eventItem{actor: actor, data: data, next: -1})
	}
	if e.open.head >= 0 {
		if e.open.tick == t {
			e.items[e.open.tail].next = i
			e.open.tail = i
			return
		}
		e.closed.push(e.open)
	}
	e.open = eventBucket{tick: t, seq: e.seqGen, head: i, tail: i}
}

// After schedules an event d ticks from now (d must be non-negative).
func (e *EventEngine) After(d Tick, actor, data int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event posted with negative delay %d", d))
	}
	e.Post(e.now+d, actor, data)
}

// Run dispatches events in (tick, seq) order until the calendar is empty.
// The handler may post further events (at or after the current tick). Run
// returns the final virtual time.
func (e *EventEngine) Run(handle func(now Tick, actor, data int32)) Tick {
	if e.running {
		panic("sim: EventEngine.Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		// The open bucket was opened after every closed one, so it loses
		// tick ties to the heap's top.
		var b *eventBucket
		switch {
		case len(e.closed) > 0 && (e.open.head < 0 || e.closed[0].tick <= e.open.tick):
			b = &e.closed[0]
		case e.open.head >= 0:
			b = &e.open
		default:
			return e.now
		}
		i := b.head
		ev := e.items[i]
		e.now = b.tick
		b.head = ev.next
		if b.head < 0 && b != &e.open {
			e.closed.pop()
		}
		e.items[i].next = e.free
		e.free = i
		e.pending--
		e.processed++
		handle(e.now, ev.actor, ev.data)
	}
}

// eventItem is one pending event's payload plus the arena index of the next
// item in its bucket (-1 at the tail). Dispatched items go onto the engine's
// free list, so a calendar in steady state allocates nothing; and since the
// list is LIFO, a bucket that fills while another drains takes over the
// drained slots in order.
type eventItem struct {
	actor, data int32
	next        int32
}

// eventBucket is a FIFO of events sharing one tick, linked through the item
// arena from head to tail (head -1 when empty). seq is the post seq of its
// first event. Each bucket holds a run of back-to-back posts, so every event
// in it has a larger seq than every event of an earlier bucket: ordering
// buckets by (tick, seq) and events within a bucket by FIFO position orders
// events by (tick, seq).
type eventBucket struct {
	tick       Tick
	seq        uint64
	head, tail int32
}

// eventHeap is a 4-ary min-heap of closed buckets ordered by (tick, seq),
// with the key inline so sifts compare contiguous memory. Taking a bucket's
// front leaves its key unchanged, so the heap sifts only when a bucket is
// closed or emptied.
type eventHeap []eventBucket

// less orders buckets by (tick, seq). It is a method of the heap, not of
// the bucket, so CPU profiles attribute it to the calendar.
func (eventHeap) less(a, b *eventBucket) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.seq < b.seq
}

// push adds b, moving parents down into the hole until b's slot is found
// so each level costs one copy instead of a swap.
func (h *eventHeap) push(b eventBucket) {
	*h = append(*h, b)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !hh.less(&b, &hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = b
}

// pop removes the top bucket: the last bucket sinks from the root through
// a hole that the earliest child of each level moves up into.
func (h *eventHeap) pop() {
	old := *h
	n := len(old) - 1
	last := old[n]
	*h = old[:n]
	hh := *h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := min(first+4, n)
		m := first
		for c := first + 1; c < end; c++ {
			if hh.less(&hh[c], &hh[m]) {
				m = c
			}
		}
		if !hh.less(&hh[m], &last) {
			break
		}
		hh[i] = hh[m]
		i = m
	}
	if i < n {
		hh[i] = last
	}
}
