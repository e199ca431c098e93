// Package mdindex implements the PDSI/UCSC scalable metadata-search
// exploration (Spyglass, Leung et al. FAST'09; §4.2.2 "Content Indexing"
// of the report): file system metadata is divided into namespace
// partitions, each carrying a small summary ("signature") of its
// contents; a query consults the summaries and scans only the partitions
// that might hold matches. Because HEC metadata queries are highly
// selective and metadata has strong namespace locality, the partitioned
// index answers searches 10-1000x faster than a flat scan of a
// database-style table, degrades gracefully (a damaged partition is
// rebuilt alone), and uses far less space than a general DBMS index.
package mdindex

import (
	"fmt"
	"sort"
	"strings"
)

// FileMeta is one file's searchable metadata record.
type FileMeta struct {
	Path  string
	Size  int64
	MTime int64 // seconds
	Owner uint32
	Ext   string // normalized extension, e.g. ".h5"
}

// Query is a conjunctive metadata predicate; zero-valued fields are
// wildcards. Ranges are inclusive.
type Query struct {
	Owner    *uint32
	Ext      string
	MinSize  *int64
	MaxSize  *int64
	MinMTime *int64
	MaxMTime *int64
}

// Matches evaluates the predicate on one record.
func (q Query) Matches(m FileMeta) bool {
	if q.Owner != nil && m.Owner != *q.Owner {
		return false
	}
	if q.Ext != "" && m.Ext != q.Ext {
		return false
	}
	if q.MinSize != nil && m.Size < *q.MinSize {
		return false
	}
	if q.MaxSize != nil && m.Size > *q.MaxSize {
		return false
	}
	if q.MinMTime != nil && m.MTime < *q.MinMTime {
		return false
	}
	if q.MaxMTime != nil && m.MTime > *q.MaxMTime {
		return false
	}
	return true
}

// partition is one namespace subtree's records plus its signature.
type partition struct {
	prefix  string
	records []FileMeta

	// Signature: cheap bounds and small-set summaries consulted before any
	// record is touched.
	minSize, maxSize   int64
	minMTime, maxMTime int64
	owners             map[uint32]struct{}
	exts               map[string]struct{}
}

func (p *partition) absorb(m FileMeta) {
	if len(p.records) == 0 {
		p.minSize, p.maxSize = m.Size, m.Size
		p.minMTime, p.maxMTime = m.MTime, m.MTime
	} else {
		if m.Size < p.minSize {
			p.minSize = m.Size
		}
		if m.Size > p.maxSize {
			p.maxSize = m.Size
		}
		if m.MTime < p.minMTime {
			p.minMTime = m.MTime
		}
		if m.MTime > p.maxMTime {
			p.maxMTime = m.MTime
		}
	}
	p.owners[m.Owner] = struct{}{}
	p.exts[m.Ext] = struct{}{}
	p.records = append(p.records, m)
}

// mayMatch consults only the signature.
func (p *partition) mayMatch(q Query) bool {
	if len(p.records) == 0 {
		return false
	}
	if q.Owner != nil {
		if _, ok := p.owners[*q.Owner]; !ok {
			return false
		}
	}
	if q.Ext != "" {
		if _, ok := p.exts[q.Ext]; !ok {
			return false
		}
	}
	if q.MinSize != nil && p.maxSize < *q.MinSize {
		return false
	}
	if q.MaxSize != nil && p.minSize > *q.MaxSize {
		return false
	}
	if q.MinMTime != nil && p.maxMTime < *q.MinMTime {
		return false
	}
	if q.MaxMTime != nil && p.minMTime > *q.MaxMTime {
		return false
	}
	return true
}

// Index is the partitioned metadata index.
type Index struct {
	depth      int
	partitions map[string]*partition
	// ordered caches the sorted partition keys; rebuilt lazily after
	// inserts so Search never re-sorts the namespace.
	ordered []string
	dirty   bool
	total   int

	// PartitionsScanned counts partitions whose records were touched by
	// queries; RecordsScanned the records evaluated (for the
	// pruning-effectiveness metrics).
	PartitionsScanned int64
	PartitionsPruned  int64
	RecordsScanned    int64
}

// Build partitions records by the first depth path components (namespace
// locality is what makes the signatures selective).
func Build(records []FileMeta, depth int) *Index {
	if depth < 1 {
		panic(fmt.Sprintf("mdindex: depth %d < 1", depth))
	}
	ix := &Index{depth: depth, partitions: make(map[string]*partition)}
	for _, m := range records {
		ix.Insert(m)
	}
	return ix
}

// partitionKey extracts the partition prefix of a path.
func (ix *Index) partitionKey(path string) string {
	trimmed := strings.TrimPrefix(path, "/")
	parts := strings.Split(trimmed, "/")
	if len(parts) > ix.depth {
		parts = parts[:ix.depth]
	}
	return strings.Join(parts, "/")
}

// Insert adds one record.
func (ix *Index) Insert(m FileMeta) {
	key := ix.partitionKey(m.Path)
	p, ok := ix.partitions[key]
	if !ok {
		p = &partition{
			prefix: key,
			owners: make(map[uint32]struct{}),
			exts:   make(map[string]struct{}),
		}
		ix.partitions[key] = p
		ix.dirty = true
	}
	p.absorb(m)
	ix.total++
}

// Len reports total indexed records; Partitions the partition count.
func (ix *Index) Len() int        { return ix.total }
func (ix *Index) Partitions() int { return len(ix.partitions) }

// Search returns every record matching q, consulting signatures first.
// Results are sorted by path for deterministic output.
func (ix *Index) Search(q Query) []FileMeta {
	if ix.dirty {
		ix.ordered = ix.ordered[:0]
		for k := range ix.partitions {
			ix.ordered = append(ix.ordered, k)
		}
		sort.Strings(ix.ordered)
		ix.dirty = false
	}
	var out []FileMeta
	for _, k := range ix.ordered {
		p := ix.partitions[k]
		if !p.mayMatch(q) {
			ix.PartitionsPruned++
			continue
		}
		ix.PartitionsScanned++
		ix.RecordsScanned += int64(len(p.records))
		for _, m := range p.records {
			if q.Matches(m) {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FlatScan is the database-table baseline: evaluate the predicate on every
// record. It returns sorted results identical to Search's.
func FlatScan(records []FileMeta, q Query) []FileMeta {
	var out []FileMeta
	for _, m := range records {
		if q.Matches(m) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
