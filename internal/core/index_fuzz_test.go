package core

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzEntries decodes a fuzz payload into up to 64 index entries, 8 bytes
// each, over a small logical space so overlaps are dense. Timestamps come
// from the payload too, so duplicate timestamps (and tie-breaking) get
// exercised — something container-generated entries never produce.
func fuzzEntries(data []byte) []IndexEntry {
	const per = 8
	n := len(data) / per
	if n > 64 {
		n = 64
	}
	entries := make([]IndexEntry, 0, n)
	for i := 0; i < n; i++ {
		rec := data[i*per : (i+1)*per]
		entries = append(entries, IndexEntry{
			LogicalOffset: int64(binary.LittleEndian.Uint16(rec[0:]) % 1024),
			Length:        int64(rec[2] % 128), // zero lengths allowed
			Writer:        int32(rec[3] % 8),
			LogOffset:     int64(binary.LittleEndian.Uint16(rec[4:])),
			Timestamp:     uint64(binary.LittleEndian.Uint16(rec[6:]) % 16), // force ties
		})
	}
	return entries
}

// FuzzBuildGlobalIndex cross-checks the sweep-line merge against a naive
// per-byte oracle: every logical byte must belong to the covering entry
// that wins priorityLess, and must map to that entry's data log at the
// right offset. The same entries cut into 1-8 ascending runs (the first
// payload byte picks how many), as writer logs arrive, must then resolve
// to the same extents.
func FuzzBuildGlobalIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10, 1, 0, 0, 1, 0, 5, 0, 10, 2, 0, 1, 2, 0})
	seed := make([]byte, 64*8)
	for i := range seed {
		seed[i] = byte(i * 31)
	}
	f.Add(seed)
	// Two runs (first byte 1) whose entries share offsets across runs and
	// include zero lengths: the run merge's input.
	runs := make([]byte, 64*8)
	for i := 0; i < 64; i++ {
		rec := runs[i*8:]
		binary.LittleEndian.PutUint16(rec[0:], uint16(1+i*5%21))
		rec[2] = byte(i % 5 * 10)
		rec[3] = byte(i)
		binary.LittleEndian.PutUint16(rec[4:], uint16(i))
		binary.LittleEndian.PutUint16(rec[6:], uint16(i))
	}
	f.Add(runs)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := fuzzEntries(data)
		g := BuildGlobalIndex(entries)
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if g.NumEntries() != len(entries) {
			t.Fatalf("NumEntries = %d, want %d", g.NumEntries(), len(entries))
		}

		// Oracle: resolve ownership byte by byte.
		var size int64
		for _, e := range entries {
			if e.Length > 0 && e.LogicalOffset+e.Length > size {
				size = e.LogicalOffset + e.Length
			}
		}
		if g.Size() != size {
			t.Fatalf("Size = %d, want %d", g.Size(), size)
		}
		owner := make([]*IndexEntry, size)
		for i := range entries {
			e := &entries[i]
			if e.Length <= 0 {
				continue
			}
			for b := e.LogicalOffset; b < e.LogicalOffset+e.Length; b++ {
				if owner[b] == nil || priorityLess(*owner[b], *e) {
					owner[b] = e
				}
			}
		}
		cur := int64(0)
		for _, p := range g.Lookup(0, size) {
			if p.Logical != cur || p.Length <= 0 {
				t.Fatalf("pieces not contiguous at %d: %+v", cur, p)
			}
			for b := p.Logical; b < p.Logical+p.Length; b++ {
				want := owner[b]
				if p.Writer < 0 {
					if want != nil {
						t.Fatalf("byte %d: hole, oracle says writer %d", b, want.Writer)
					}
					continue
				}
				if want == nil {
					t.Fatalf("byte %d: writer %d, oracle says hole", b, p.Writer)
				}
				if p.Writer != want.Writer {
					t.Fatalf("byte %d: writer %d, oracle says %d", b, p.Writer, want.Writer)
				}
				gotLog := p.LogOff + (b - p.Logical)
				wantLog := want.LogOffset + (b - want.LogicalOffset)
				if gotLog != wantLog {
					t.Fatalf("byte %d: log offset %d, oracle says %d", b, gotLog, wantLog)
				}
			}
			cur += p.Length
		}
		if cur != size {
			t.Fatalf("lookup covered %d of %d bytes", cur, size)
		}

		if len(data) > 0 {
			rg := BuildGlobalIndex(ascendingRuns(entries, int(data[0])%8+1))
			if rg.size != g.size || rg.entries != g.entries || !reflect.DeepEqual(rg.extents, g.extents) {
				t.Fatalf("entries in %d ascending runs resolve to %d extents, in input order to %d",
					int(data[0])%8+1, rg.NumExtents(), g.NumExtents())
			}
		}
	})
}
