package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// This file preserves the pre-sweep-line BuildGlobalIndex — the per-entry
// overlay that copied the whole extent slice on every insert — as a
// reference implementation. The sweep-line merge must reproduce its output
// bit-for-bit; the tests here check that on randomized inputs and the
// benchmarks keep the quadratic baseline measurable next to the new path.

func buildGlobalIndexOverlay(entries []IndexEntry) *GlobalIndex {
	g := &GlobalIndex{entries: len(entries)}
	sorted := append([]IndexEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.Writer != b.Writer {
			return a.Writer < b.Writer
		}
		return a.LogOffset < b.LogOffset
	})
	for _, e := range sorted {
		if e.Length <= 0 {
			continue
		}
		g.insertOverlay(extent{logical: e.LogicalOffset, length: e.Length, writer: e.Writer, logOff: e.LogOffset})
		if end := e.LogicalOffset + e.Length; end > g.size {
			g.size = end
		}
	}
	return g
}

// insertOverlay overlays x on the extent list, truncating or splitting
// anything it overlaps (x is newer than everything already present).
func (g *GlobalIndex) insertOverlay(x extent) {
	i := sort.Search(len(g.extents), func(i int) bool {
		return g.extents[i].end() > x.logical
	})
	var out []extent
	out = append(out, g.extents[:i]...)
	j := i
	for ; j < len(g.extents); j++ {
		old := g.extents[j]
		if old.logical >= x.end() {
			break
		}
		if old.logical < x.logical {
			out = append(out, extent{
				logical: old.logical,
				length:  x.logical - old.logical,
				writer:  old.writer,
				logOff:  old.logOff,
			})
		}
		if old.end() > x.end() {
			cut := x.end() - old.logical
			tail := extent{
				logical: x.end(),
				length:  old.end() - x.end(),
				writer:  old.writer,
				logOff:  old.logOff + cut,
			}
			out = append(out, x, tail)
			out = append(out, g.extents[j+1:]...)
			g.extents = out
			return
		}
	}
	out = append(out, x)
	out = append(out, g.extents[j:]...)
	g.extents = out
}

// randomEntries draws n entries with unique timestamps (as the container
// clock guarantees) over a small logical space so overlaps are dense.
func randomEntries(r *rand.Rand, n int) []IndexEntry {
	entries := make([]IndexEntry, n)
	for i := range entries {
		entries[i] = IndexEntry{
			LogicalOffset: int64(r.Intn(400)),
			Length:        int64(r.Intn(80) + 1),
			Writer:        int32(r.Intn(6)),
			LogOffset:     int64(r.Intn(4096)),
			Timestamp:     uint64(i + 1),
		}
	}
	// Shuffle so timestamps do not arrive in slice order, as when many
	// hostdir logs are concatenated.
	r.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

// ascendingRuns deals entries round-robin into k runs and sorts each run
// by offset: the order OpenReader hands the merge when every writer's log
// ascends. Entries sharing an offset can land in different runs.
func ascendingRuns(entries []IndexEntry, k int) []IndexEntry {
	runs := make([][]IndexEntry, k)
	for i, e := range entries {
		runs[i%k] = append(runs[i%k], e)
	}
	out := make([]IndexEntry, 0, len(entries))
	for _, run := range runs {
		slices.SortStableFunc(run, func(a, b IndexEntry) int { return cmp.Compare(a.LogicalOffset, b.LogicalOffset) })
		out = append(out, run...)
	}
	return out
}

// TestSweepMatchesOverlayReference is the equivalence guarantee behind the
// rewrite: identical extent lists (not just identical resolved bytes) on
// randomized inputs, including zero-length entries and dense overlaps.
// Each input is checked in random order, which splits into many short
// runs, and cut into 1-8 long ascending runs with extra zero-length
// entries, as writer logs arrive.
func TestSweepMatchesOverlayReference(t *testing.T) {
	same := func(entries []IndexEntry) bool {
		got := BuildGlobalIndex(entries)
		want := buildGlobalIndexOverlay(entries)
		if got.CheckInvariants() != nil {
			return false
		}
		return got.size == want.size &&
			got.entries == want.entries &&
			reflect.DeepEqual(got.extents, want.extents)
	}
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		entries := randomEntries(r, int(nOps)%120+1)
		if int(nOps)%7 == 0 {
			entries = append(entries, IndexEntry{LogicalOffset: 10, Length: 0, Writer: 1, Timestamp: 0})
		}
		withEmpty := slices.Clone(entries)
		for i := 0; i < len(entries); i += 8 {
			withEmpty = append(withEmpty, IndexEntry{LogicalOffset: entries[i].LogicalOffset, Writer: 2, Timestamp: uint64(len(withEmpty) + 1)})
		}
		return same(entries) && same(ascendingRuns(withEmpty, r.Intn(8)+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepMatchesOverlayOnCheckpointShapes(t *testing.T) {
	for name, entries := range map[string][]IndexEntry{
		"strided":     stridedCheckpointEntries(1<<12, 16),
		"strided-log": ascendingRuns(stridedCheckpointEntries(1<<12, 16), 16), // one run per writer
		"overlap":     overlappingEntries(1 << 12),
		"empty":       nil,
	} {
		got := BuildGlobalIndex(entries)
		want := buildGlobalIndexOverlay(entries)
		if !reflect.DeepEqual(got.extents, want.extents) || got.size != want.size {
			t.Errorf("%s: sweep and overlay outputs differ (%d vs %d extents)",
				name, got.NumExtents(), want.NumExtents())
		}
	}
}

// BenchmarkBuildGlobalIndexOverlayRef is the pre-rewrite baseline, kept
// runnable (at sizes the quadratic algorithm can finish) so regressions in
// the comparison are visible in one bench run.
func BenchmarkBuildGlobalIndexOverlayRef(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			entries := stridedCheckpointEntries(n, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := buildGlobalIndexOverlay(entries)
				if g.NumEntries() != len(entries) {
					b.Fatal("bad merge")
				}
			}
		})
	}
}
