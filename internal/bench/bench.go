// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation, each regenerating the corresponding series
// from the simulated machines. Runners return structured Figures (so the
// test suite can assert the shapes the paper reports) and print
// OSU-benchmark-style tables.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"yhccl/internal/mpi"
)

// Series is one curve of a figure.
type Series struct {
	// Name is the legend label ("Socket-aware MA (ours)", "DPML", ...).
	Name string
	// Y holds the measured values, one per figure X point.
	Y []float64
}

// Figure is a regenerated table/figure.
type Figure struct {
	// ID is the experiment id ("fig9a", "table4", ...).
	ID string
	// Title describes the experiment.
	Title string
	// XLabel and XValues define the sweep axis (message bytes, node
	// counts, ...).
	XLabel  string
	XValues []int64
	// YLabel describes the measured quantity.
	YLabel string
	// Series are the per-algorithm curves.
	Series []Series
	// Baseline, if non-empty, names the series others are shown relative
	// to when printing (the paper's "relative time overhead").
	Baseline string
	// Notes carry reproduction caveats shown under the table.
	Notes []string
	// HostNotes carry host measurements (wall time, allocations) that
	// vary from run to run, so Fprint leaves them out of the table.
	HostNotes []string
}

// Runner regenerates one experiment. quick trims the sweep for tests.
type Runner func(quick bool) (*Figure, error)

// registry maps experiment ids to runners in display order.
var registry []struct {
	id     string
	title  string
	runner Runner
}

func register(id, title string, r Runner) {
	registry = append(registry, struct {
		id     string
		title  string
		runner Runner
	}{id, title, r})
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the experiment titles keyed by id.
func Describe() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// Run executes one experiment by id.
func Run(id string, quick bool) (*Figure, error) {
	for _, e := range registry {
		if e.id == id {
			return e.runner(quick)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// find returns the series with the given name.
func (f *Figure) find(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Value returns series `name` at x index i (helper for tests).
func (f *Figure) Value(name string, i int) (float64, bool) {
	s := f.find(name)
	if s == nil || i >= len(s.Y) {
		return 0, false
	}
	return s.Y[i], true
}

// Fprint renders the figure as an aligned table. When Baseline is set, the
// baseline column shows absolute values and the others the ratio to it
// (the paper's relative-overhead presentation).
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	base := f.find(f.Baseline)
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		name := s.Name
		if base != nil && s.Name != f.Baseline {
			name += " (rel)"
		}
		cols = append(cols, name)
	}
	rows := make([][]string, len(f.XValues))
	for i, x := range f.XValues {
		row := []string{formatX(f.XLabel, x)}
		for _, s := range f.Series {
			v := s.Y[i]
			if base != nil && s.Name != f.Baseline && base.Y[i] != 0 {
				row = append(row, fmt.Sprintf("%.2fx", v/base.Y[i]))
			} else {
				row = append(row, formatY(f.YLabel, v))
			}
		}
		rows[i] = row
	}
	printAligned(w, cols, rows)
	if f.Baseline != "" {
		fmt.Fprintf(w, "baseline column %q in %s; others relative to it\n", f.Baseline, f.YLabel)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the figure as CSV (one row per X value, one column per
// series) for plotting tools.
func (f *Figure) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "x")
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%q", s.Name)
	}
	fmt.Fprintln(w)
	for i, x := range f.XValues {
		fmt.Fprintf(w, "%d", x)
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%g", s.Y[i])
		}
		fmt.Fprintln(w)
	}
}

func formatX(label string, x int64) string {
	if strings.Contains(label, "bytes") || strings.Contains(label, "Msg") {
		return ByteSize(x)
	}
	return fmt.Sprintf("%d", x)
}

func formatY(label string, v float64) string {
	switch {
	case strings.Contains(label, "us"):
		return fmt.Sprintf("%.1f", v*1e6)
	case strings.Contains(label, "GB/s"):
		return fmt.Sprintf("%.1f", v/1e9)
	case strings.Contains(label, "img/s"):
		return fmt.Sprintf("%.1f", v)
	case strings.Contains(label, "seconds"):
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// ByteSize renders 65536 as "64KB".
func ByteSize(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

func printAligned(w io.Writer, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(cols)
	for _, r := range rows {
		line(r)
	}
}

// steadyState runs body twice on the machine (warm-up + measured) and
// returns the measured makespan, mirroring the OSU iteration loop: the
// first run's makespan is discarded, it exists only to populate the
// residency trackers; the second run then starts from the steady-state
// cache contents an application's iteration loop would see.
//
// The contract this depends on: the body must allocate through
// PersistentBuffer (or otherwise reuse buffers), so the regions the warm-up
// run left resident are the same regions the measured run touches. A body
// that allocates fresh buffers per run would silently measure a cold run —
// the warm-up's residency would belong to orphaned buffer IDs. That
// mistake is cheap to detect: a correct body leaves data resident when the
// warm-up finishes, so an empty tracker means the contract is broken.
func steadyState(m *mpi.Machine, body func(r *mpi.Rank)) float64 {
	m.MustRun(body)
	warmed := int64(0)
	for s := 0; s < m.Node.Sockets; s++ {
		warmed += m.Model.CacheOccupancy(s)
	}
	if warmed == 0 {
		panic("bench: steadyState warm-up run left no cache residency; " +
			"the body must reuse buffers (PersistentBuffer) so the measured " +
			"run starts warm")
	}
	return m.MustRun(body)
}

// sweep fills a Figure series by applying measure to each size.
func sweep(sizes []int64, measure func(sBytes int64) float64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = measure(s)
	}
	return out
}

// sortedKeys returns map keys in sorted order (stable table columns).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
