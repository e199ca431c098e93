package core

import (
	"fmt"
	"io"
	"testing"
)

// Library micro-benchmarks: the costs a PLFS user actually pays — appends
// on the write path, index merge on open, resolved lookups on the read
// path — independent of any simulated file system.

func BenchmarkWriterAppend4K(b *testing.B) {
	backend := NewMemBackend()
	c, err := CreateContainer(backend, "/c", DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteAt(buf, int64(i)*8192); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriterAppendCoalesced(b *testing.B) {
	backend := NewMemBackend()
	c, err := CreateContainer(backend, "/c", Options{NumHostdirs: 32, CoalesceIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteAt(buf, int64(i)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterAppendFramed47k is the write phase of pdsibench's
// plfs_n1_47k workload: 16 framed (v2) writers append N-1 strided
// 47008-B records, 8 per writer per container. One op is one WriteAt; a
// fresh container every 128 ops, opened with the timer stopped, keeps
// every log at the workload's size, so allocs/op shows what an append
// costs the writer and the backend.
func BenchmarkWriterAppendFramed47k(b *testing.B) {
	const writers, records, recSize = 16, 8, 47008
	buf := make([]byte, recSize)
	ws := make([]*Writer, writers)
	b.SetBytes(recSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (writers * records)
		if k == 0 {
			b.StopTimer()
			c, err := CreateContainer(NewMemBackend(), "/c", Options{NumHostdirs: 32, Framed: true})
			if err != nil {
				b.Fatal(err)
			}
			for w := range ws {
				if ws[w], err = c.OpenWriter(int32(w)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if _, err := ws[k%writers].WriteAt(buf, int64(k)*recSize); err != nil {
			b.Fatal(err)
		}
	}
}

func buildContainer(b *testing.B, writers, recsPerWriter int) *Container {
	b.Helper()
	backend := NewMemBackend()
	c, err := CreateContainer(backend, "/c", DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	for wtr := 0; wtr < writers; wtr++ {
		w, err := c.OpenWriter(int32(wtr))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < recsPerWriter; i++ {
			off := int64((i*writers + wtr) * 4096)
			if _, err := w.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		w.Close()
	}
	return c
}

func BenchmarkOpenReaderIndexMerge(b *testing.B) {
	for _, writers := range []int{4, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			c := buildContainer(b, writers, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := c.OpenReader()
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}

func BenchmarkReaderStridedReadBack(b *testing.B) {
	c := buildContainer(b, 16, 256)
	r, err := c.OpenReader()
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%8) << 20
		if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGlobalIndex(b *testing.B) {
	entries := make([]IndexEntry, 8192)
	for i := range entries {
		entries[i] = IndexEntry{
			LogicalOffset: int64((i * 37) % 4096 * 4096),
			Length:        4096,
			Writer:        int32(i % 64),
			LogOffset:     int64(i) * 4096,
			Timestamp:     uint64(i + 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := BuildGlobalIndex(entries)
		if g.NumEntries() != len(entries) {
			b.Fatal("bad merge")
		}
	}
}

// stridedCheckpointEntries models an N-1 strided checkpoint: writers
// interleave fixed-size records round-robin and entries arrive in
// timestamp order. Every record is disjoint, so the resolved extent list
// grows to n — the pattern that made the old per-entry overlay quadratic.
func stridedCheckpointEntries(n, writers int) []IndexEntry {
	const rec = 4096
	entries := make([]IndexEntry, 0, n)
	var ts uint64
	for i := 0; len(entries) < n; i++ {
		for w := 0; w < writers && len(entries) < n; w++ {
			ts++
			entries = append(entries, IndexEntry{
				LogicalOffset: int64(i*writers+w) * rec,
				Length:        rec,
				Writer:        int32(w),
				LogOffset:     int64(i) * rec,
				Timestamp:     ts,
			})
		}
	}
	return entries
}

// overlappingEntries is the fully-overlapping worst case: every entry
// overlays half of its predecessor, so each one must split what came
// before it during conflict resolution.
func overlappingEntries(n int) []IndexEntry {
	const rec = 4096
	entries := make([]IndexEntry, n)
	for i := range entries {
		entries[i] = IndexEntry{
			LogicalOffset: int64(i) * rec / 2,
			Length:        rec,
			Writer:        int32(i % 64),
			LogOffset:     int64(i) * rec,
			Timestamp:     uint64(i + 1),
		}
	}
	return entries
}

func benchBuild(b *testing.B, entries []IndexEntry) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := BuildGlobalIndex(entries)
		if g.NumEntries() != len(entries) {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkBuildGlobalIndexStrided is the headline adversarial case: a
// disjoint N-1 strided checkpoint at small (old-shape) and large
// (new-shape) entry counts, up to a 1M-entry restart. order=clock feeds
// the entries in timestamp order, one ascending run; order=log feeds them
// as OpenReader does, one ascending run per writer's log.
func BenchmarkBuildGlobalIndexStrided(b *testing.B) {
	const writers = 64
	for _, order := range []string{"clock", "log"} {
		for _, n := range []int{1 << 13, 1 << 15, 1 << 17, 1 << 20} {
			b.Run(fmt.Sprintf("order=%s/entries=%d", order, n), func(b *testing.B) {
				entries := stridedCheckpointEntries(n, writers)
				if order == "log" {
					// Entry i belongs to writer i%writers.
					entries = ascendingRuns(entries, writers)
				}
				benchBuild(b, entries)
			})
		}
	}
}

// BenchmarkBuildGlobalIndexOverlap stresses conflict resolution: every
// entry overlaps its predecessor, maximizing splits.
func BenchmarkBuildGlobalIndexOverlap(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 15, 1 << 17} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			benchBuild(b, overlappingEntries(n))
		})
	}
}

func BenchmarkGlobalIndexLookup(b *testing.B) {
	entries := make([]IndexEntry, 4096)
	for i := range entries {
		entries[i] = IndexEntry{
			LogicalOffset: int64(i) * 4096,
			Length:        4096,
			Writer:        int32(i % 16),
			LogOffset:     int64(i/16) * 4096,
			Timestamp:     uint64(i + 1),
		}
	}
	g := BuildGlobalIndex(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.Lookup(int64(i%4000)*4096, 65536); len(got) == 0 {
			b.Fatal("empty lookup")
		}
	}
}

func BenchmarkFlatten(b *testing.B) {
	c := buildContainer(b, 8, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.OpenReader()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Flatten(fmt.Sprintf("/flat.%d", i)); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
