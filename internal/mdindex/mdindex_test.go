package mdindex

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func u32(v uint32) *uint32 { return &v }
func i64(v int64) *int64   { return &v }

// synthesize builds a population with namespace locality: each project
// directory belongs to one owner and favors one extension — the property
// Spyglass partitions exploit.
func synthesize(nProjects, filesPer int, seed int64) []FileMeta {
	r := rand.New(rand.NewSource(seed))
	exts := []string{".h5", ".nc", ".dat", ".txt", ".bin"}
	var out []FileMeta
	for p := 0; p < nProjects; p++ {
		owner := uint32(p % 40)
		favored := exts[p%len(exts)]
		for f := 0; f < filesPer; f++ {
			ext := favored
			if r.Intn(10) == 0 {
				ext = exts[r.Intn(len(exts))]
			}
			out = append(out, FileMeta{
				Path:  fmt.Sprintf("/proj%03d/run%02d/file%04d%s", p, f%8, f, ext),
				Size:  int64(r.Intn(1 << 24)),
				MTime: int64(p*1e5 + f),
				Owner: owner,
				Ext:   ext,
			})
		}
	}
	return out
}

func TestQueryMatches(t *testing.T) {
	m := FileMeta{Path: "/a/b", Size: 100, MTime: 50, Owner: 7, Ext: ".h5"}
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{Owner: u32(7)}, true},
		{Query{Owner: u32(8)}, false},
		{Query{Ext: ".h5"}, true},
		{Query{Ext: ".nc"}, false},
		{Query{MinSize: i64(100), MaxSize: i64(100)}, true},
		{Query{MinSize: i64(101)}, false},
		{Query{MaxSize: i64(99)}, false},
		{Query{MinMTime: i64(50), MaxMTime: i64(50)}, true},
		{Query{MaxMTime: i64(49)}, false},
	}
	for i, c := range cases {
		if got := c.q.Matches(m); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestBuildAndCounts(t *testing.T) {
	records := synthesize(50, 100, 1)
	ix := Build(records, 1)
	if ix.Len() != len(records) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(records))
	}
	if ix.Partitions() != 50 {
		t.Fatalf("Partitions = %d, want 50 (one per project)", ix.Partitions())
	}
}

func TestInvalidDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth 0 did not panic")
		}
	}()
	Build(nil, 0)
}

func TestSearchEqualsFlatScan(t *testing.T) {
	records := synthesize(40, 80, 2)
	ix := Build(records, 1)
	queries := []Query{
		{Owner: u32(3)},
		{Ext: ".h5"},
		{Owner: u32(5), Ext: ".nc"},
		{MinSize: i64(1 << 22)},
		{MinMTime: i64(100000), MaxMTime: i64(300000)},
		{Owner: u32(1), MinSize: i64(1000), MaxSize: i64(1 << 20)},
		{Owner: u32(9999)}, // no matches
	}
	for qi, q := range queries {
		got := ix.Search(q)
		want := FlatScan(records, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: index %d results, flat scan %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d differs: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestSearchEqualsFlatScanProperty(t *testing.T) {
	records := synthesize(20, 50, 3)
	ix := Build(records, 1)
	f := func(owner uint8, minSz uint32, span uint16) bool {
		q := Query{
			Owner:   u32(uint32(owner % 40)),
			MinSize: i64(int64(minSz % (1 << 24))),
		}
		maxSz := *q.MinSize + int64(span)*256
		q.MaxSize = &maxSz
		got := ix.Search(q)
		want := FlatScan(records, q)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveQueriesPruneMostPartitions(t *testing.T) {
	// The Spyglass claim rests on pruning: an owner-selective query should
	// touch only that owner's project partitions.
	records := synthesize(100, 100, 4)
	ix := Build(records, 1)
	ix.Search(Query{Owner: u32(7)})
	scanned, pruned := ix.PartitionsScanned, ix.PartitionsPruned
	if scanned+pruned != 100 {
		t.Fatalf("scanned %d + pruned %d != 100", scanned, pruned)
	}
	// Owner 7 owns ~1/40 of projects.
	if scanned > 10 {
		t.Fatalf("scanned %d partitions, want few (signatures should prune)", scanned)
	}
}

func TestDeeperPartitioningStillCorrect(t *testing.T) {
	records := synthesize(10, 80, 6)
	for depth := 1; depth <= 3; depth++ {
		ix := Build(records, depth)
		got := ix.Search(Query{Ext: ".h5"})
		want := FlatScan(records, Query{Ext: ".h5"})
		if len(got) != len(want) {
			t.Fatalf("depth %d: %d vs %d results", depth, len(got), len(want))
		}
	}
}
