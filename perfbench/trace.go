package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Names are "<layer>.<call>" ("mpi.run", "cluster.compile"); the benchmark's
// own pass spans use the layer "bench".
type span struct {
	id, parent int // parent is -1 for a root span
	name       string
	start, end time.Duration // since the tracer's epoch
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory while on; writeTrace writes them out once the
// run is over. Off, begin and end cost one branch each.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // ids of the spans still open, innermost last
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each layer's self time over spans[from:]: the duration
// of its spans minus the part of each span its child spans cover. Parents
// of those spans must lie in spans[from:] too.
func selfTimes(spans []span, from int) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans[from:] {
		self[s.layer()] += s.end - s.start
		if s.parent >= 0 {
			self[spans[s.parent].layer()] -= s.end - s.start
		}
	}
	return self
}

// writeTrace writes spans to path in Chrome trace-event format (load it in
// chrome://tracing or Perfetto). Each event carries its span id and parent.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// pass is the state of one pass of a workload: its timings, its outputs and
// its failures.
type pass struct {
	seed uint64
	tr   *tracer

	wall     time.Duration
	alloc    uint64 // heap bytes allocated
	gcCycles uint32

	totals map[string]time.Duration // summed duration per span name
	setup  time.Duration            // time spent in set-up calls

	ops      int      // operations attempted
	problems []string // one line per failed operation

	// records are the pass's deterministic outputs by key; a key whose value
	// differs from the first pass, or from the expected file, is a failed op.
	records map[string]string
	// sim holds the simulated seconds that sim_time_us summarizes.
	sim []float64
	// counters are per-layer counts and values for the traced run's metrics.
	counters map[string]float64
}

func newPass(seed uint64, tr *tracer) *pass {
	return &pass{
		seed: seed, tr: tr,
		totals:   make(map[string]time.Duration),
		records:  make(map[string]string),
		counters: make(map[string]float64),
	}
}

// call times f as one call into the layer its name names.
func (p *pass) call(name string, f func()) time.Duration {
	id := p.tr.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	p.tr.end(id)
	p.totals[name] += d
	return d
}

// setupCall is call for a set-up call (machine, cluster, program, stream or
// plan construction); its time also counts toward setup_s.
func (p *pass) setupCall(name string, f func()) {
	p.setup += p.call(name, f)
}

func (p *pass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *pass) record(key, value string) {
	if _, dup := p.records[key]; dup {
		p.fail("%s: output recorded twice", key)
	}
	p.records[key] = value
}

func (p *pass) add(counter string, v float64) { p.counters[counter] += v }

// peak keeps the largest value seen for a counter.
func (p *pass) peak(counter string, v float64) {
	if v > p.counters[counter] {
		p.counters[counter] = v
	}
}

// diffRecords returns one problem line per key whose value differs between
// want and got, or that only one of them holds.
func diffRecords(what string, want, got map[string]string) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		switch {
		case !inGot:
			out = append(out, fmt.Sprintf("%s: %s missing", what, k))
		case !inWant:
			out = append(out, fmt.Sprintf("%s: %s = %s is not recorded", what, k, g))
		case g != w:
			out = append(out, fmt.Sprintf("%s: %s = %s, want %s", what, k, g, w))
		}
	}
	return out
}
