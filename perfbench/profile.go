package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers CPU samples are attributed to, in table order.
// "runtime" holds samples with no yhccl or benchmark frame (GC, scheduler,
// allocator work not below any such call); "other" holds samples whose
// innermost yhccl frame is none of the named layers (topo, memcopy, chaos,
// the yhccl facade) or that only this benchmark's own code holds.
var cpuLayers = []string{
	"sim.coroutine", "sim.event", "memmodel", "coll", "mpi", "plan",
	"cluster", "resilient", "fault", "serve", "runtime", "other",
}

// attribute names the layer one CPU sample belongs to, given its frames'
// function names from the leaf outwards. The sample goes to the innermost
// yhccl/internal/<pkg> frame; runtime frames above it (allocation, coroutine
// switches) count for that package. Within sim, frames of the event
// calendar and its program interpreter count as sim.event, everything else
// (Proc, Engine, the coroutine program runner) as sim.coroutine.
func attribute(frames []string) string {
	own := false
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "yhccl") && !strings.HasPrefix(fn, "main.") {
			continue
		}
		own = true
		rest, ok := strings.CutPrefix(fn, "yhccl/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "sim":
			for _, ev := range []string{"EventEngine", "eventHeap", "programRunner", "runProgramEvent", "RunProgramEvent"} {
				if strings.Contains(rest, ev) {
					return "sim.event"
				}
			}
			return "sim.coroutine"
		case "memmodel", "coll", "mpi", "plan", "cluster", "resilient", "fault", "serve":
			return pkg
		}
		return "other"
	}
	if own {
		return "other"
	}
	return "runtime"
}

// cpuShares decodes a CPU profile written by runtime/pprof and returns each
// layer's share of the sampled CPU time in percent, summing to 100 (all
// zero when the profile holds no samples).
func cpuShares(raw []byte) (map[string]float64, error) {
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[attribute(s.frames)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] *= 100 / total
		}
	}
	return shares, nil
}

// profSample is one decoded profile sample: its stack as function names,
// leaf first, and its first value (the sample count for a CPU profile).
type profSample struct {
	frames []string
	value  int64
}

// decodeProfile reads the parts of a (gzipped) profile.proto message that
// attribution needs: samples, locations, functions and the string table.
func decodeProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	top := pbuf{b: raw}
	for top.more() {
		num, wire := top.key()
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			var values []uint64
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch n {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					values = m.uints(w, values)
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			samples = append(samples, s)
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 4 && w == 2: // Line
					l := pbuf{b: m.bytes()}
					for l.more() {
						ln, lw := l.key()
						if ln == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locFns[id] = fns
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			fnName[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("decode profile: %w", top.err)
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		out[i].value = s.value
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := ""
				if idx := fnName[fn]; idx >= 0 && idx < int64(len(strs)) {
					name = strs[idx]
				}
				out[i].frames = append(out[i].frames, name)
			}
		}
	}
	return out, nil
}

// pbuf reads protobuf wire format. The first malformed field sets err and
// stops further reads.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("protobuf varint overflows 64 bits")
	return 0
}

func (p *pbuf) key() (num, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errTruncated
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func (p *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	if wire != 2 {
		p.skip(wire)
		return dst
	}
	packed := pbuf{b: p.bytes()}
	for packed.more() {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		p.err = packed.err
	}
	return dst
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
}

func (p *pbuf) advance(n int) {
	if len(p.b) < n {
		p.err = errTruncated
		return
	}
	p.b = p.b[n:]
}
