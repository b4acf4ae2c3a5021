package memmodel

import "testing"

// FuzzCacheState drives the region tracker and the naive reference (see
// refCheck) with arbitrary operation streams decoded from fuzz input,
// checking structural invariants and agreement with the reference after
// every step. `go test` runs the seed corpus; `go test -fuzz=FuzzCacheState`
// explores further.
func FuzzCacheState(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16})
	f.Add([]byte("interval soup"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newRefCheck(1024, 4, 8192)
		for i := 0; i+4 <= len(data); i += 4 {
			buf := uint64(data[i]%4) + 1
			h.c.curSlot = int(data[i] / 64)
			lo := int64(data[i+1]) * 16
			hi := lo + int64(data[i+2])*8 + 1
			var err error
			switch data[i+3] % 4 {
			case 0, 1:
				err = h.insert(buf, lo, hi, data[i+3]%2 == 0)
			case 2:
				err = h.invalidate(buf, lo, hi)
			case 3:
				err = h.lookup(buf, lo, hi)
			}
			if err != nil {
				t.Fatalf("step %d: %v", i/4, err)
			}
		}
	})
}

// FuzzBufferRanges checks that CheckRange accepts exactly the in-bounds
// ranges.
func FuzzBufferRanges(f *testing.F) {
	f.Add(int64(10), int64(0), int64(10))
	f.Add(int64(10), int64(5), int64(5))
	f.Add(int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, elems, off, n int64) {
		if elems < 0 || elems > 1<<20 {
			return
		}
		b := &Buffer{Name: "fuzz", Elems: elems}
		inBounds := off >= 0 && n >= 0 && off+n >= 0 && off+n <= elems
		defer func() {
			r := recover()
			if inBounds && r != nil {
				t.Fatalf("in-bounds range [%d,%d) of %d panicked: %v", off, off+n, elems, r)
			}
			if !inBounds && r == nil {
				t.Fatalf("out-of-bounds range [%d,%d) of %d accepted", off, off+n, elems)
			}
		}()
		b.CheckRange(off, n)
	})
}
