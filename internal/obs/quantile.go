//lint:allowfile goroutine -- sanctioned site: quantile samples arrive from parallel shard runners under a mutex

package obs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// quantChunk is the size, in samples, of every chunk of a Quantile but
// the first while it grows: 64 KiB of float64s.
const quantChunk = 8 << 10

// Quantile records every observation exactly and reports exact
// nearest-rank quantiles at snapshot time. Unlike Histogram, which trades
// precision for fixed memory, a Quantile keeps the full sample set — the
// right trade for per-operation latency SLOs, where the report must state
// p99/p999 exactly, byte-identically across runs. The populations are
// large but bounded: one sim_n1_faults_report rep keeps 1,003,904
// samples in 11 quantiles, and `pdsirepro -fig rebuild -report` keeps
// 3,520 quantiles of about 25 samples each. A sample costs 8 bytes, held
// in chunks that are never copied once full, and a snapshot is linear in
// the sample count (selection, not a sort).
//
// The zero of a nil *Quantile is a valid no-op instrument, matching the
// other obs handles: probe sites call Observe unconditionally and pay one
// branch when analytics are disabled.
type Quantile struct {
	mu   *sync.Mutex // its own, or the one an OpTimerSet's columns share
	cur  []float64   // the chunk being filled, at its full length
	i    int         // samples in cur
	full [][]float64 // filled chunks, quantChunk samples each
	sum  float64
}

// Observe records one sample. No-op on a nil receiver.
func (q *Quantile) Observe(v float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.add(v)
	q.mu.Unlock()
}

// add appends v; the caller holds q.mu.
func (q *Quantile) add(v float64) {
	if q.i == len(q.cur) {
		q.grow()
	}
	q.cur[q.i] = v
	q.i++
	q.sum += v
}

// grow makes room for one more sample. The first chunk doubles, as an
// appended slice would, so a quantile smaller than a chunk costs what one
// slice does. A full chunk is kept where it is and a new one started, so
// no sample is copied twice.
func (q *Quantile) grow() {
	if n := len(q.cur); n < quantChunk {
		c := make([]float64, min(max(2*n, 1), quantChunk))
		copy(c, q.cur)
		q.cur = c
		return
	}
	q.full = append(q.full, q.cur)
	q.cur, q.i = make([]float64, quantChunk), 0
}

// count returns the number of samples; the caller holds q.mu.
func (q *Quantile) count() int { return len(q.full)*quantChunk + q.i }

// Count returns the number of observations (0 on a nil receiver).
func (q *Quantile) Count() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count()
}

// observeRow appends vals[i] to cols[i] under the one lock the columns
// share: an op timer's whole row costs one Lock.
func observeRow(cols []*Quantile, vals []float64) {
	vals = vals[:len(cols)]
	mu := cols[0].mu
	mu.Lock()
	for i, q := range cols {
		q.add(vals[i])
	}
	mu.Unlock()
}

// quantileColumns fills cols with the quantiles named names, creating
// them behind one shared lock for observeRow. Columns that exist already
// are returned as they are, so a second call with the same names returns
// the same columns behind the same lock; it panics if a name exists
// outside that group.
func (r *Registry) quantileColumns(cols []*Quantile, names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mu := new(sync.Mutex)
	for i, name := range names {
		q, ok := r.quants[name]
		if !ok {
			q = &Quantile{mu: mu}
			r.quants[name] = q
		}
		cols[i] = q
	}
	for i, q := range cols {
		if q.mu != cols[0].mu {
			panic(fmt.Sprintf("obs: quantile %q is registered apart from %q", names[i], names[0]))
		}
	}
}

// QuantileSnapshot is the serialized state of one quantile metric. The
// reported ranks are exact (nearest-rank over the full sorted sample
// set), not estimates.
type QuantileSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of
// the samples, or 0 for an empty set. It ranks a copy, leaving the input
// untouched — the standalone companion to the Quantile instrument for
// harnesses that collect their own sample slices (the rebuild experiment
// reports foreground p99 under rebuild storms through it).
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	r, _, _ := newRanks(append([]float64(nil), samples...))
	return r.at(q)
}

// snapshot copies q's samples into scratch, grown if it is too small,
// and ranks them there. It returns the buffer for the next quantile.
func (q *Quantile) snapshot(scratch []float64) (QuantileSnapshot, []float64) {
	q.mu.Lock()
	n := q.count()
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	a := scratch[:n]
	off := 0
	for _, c := range q.full {
		off += copy(a[off:], c)
	}
	copy(a[off:], q.cur[:q.i])
	s := QuantileSnapshot{Count: uint64(n), Sum: finite(q.sum)}
	q.mu.Unlock()
	if n == 0 {
		return s, scratch
	}
	r, lo, hi := newRanks(a)
	s.Min = finite(lo)
	s.Max = finite(hi)
	s.P50 = finite(r.at(0.50))
	s.P90 = finite(r.at(0.90))
	s.P99 = finite(r.at(0.99))
	s.P999 = finite(r.at(0.999))
	return s, scratch
}

// ranks finds exact nearest-rank quantiles of a sample set in place. Its
// answers are what indexing the set after sort.Float64s gives — NaNs
// first, then ascending — without sorting it: each rank is placed by
// selection, and only in the part of the set above the previous rank, so
// ascending queries together take expected time linear in the set's
// size.
type ranks struct {
	a []float64
	// a[:from] is settled: the NaNs, then values no greater than any in
	// a[from:]. Ranks below from have their final values.
	from int
	// least is the least value in a[from:], and greatest the greatest in
	// a (both ignoring NaN).
	least, greatest float64
}

// newRanks moves a's NaNs to its front, where sort.Float64s orders them,
// and returns the ranks of a with its least and greatest elements in
// that order (NaN for the least if a has any NaN, for the greatest if a
// has nothing else). a must not be empty.
func newRanks(a []float64) (r ranks, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	nan := 0
	for i, v := range a {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v != v {
			a[i], a[nan] = a[nan], v
			nan++
		}
	}
	r = ranks{a: a, from: nan, least: lo, greatest: hi}
	if nan > 0 {
		lo = math.NaN()
	}
	if nan == len(a) {
		hi = math.NaN()
	}
	return r, lo, hi
}

// at returns the nearest-rank q-quantile (0 < q <= 1): the element at
// index ceil(n·q)−1, clamped to the set. Successive calls must not
// decrease q.
func (r *ranks) at(q float64) float64 {
	k := int(math.Ceil(float64(len(r.a))*q)) - 1
	k = min(max(k, 0), len(r.a)-1)
	if k < r.from {
		return r.a[k]
	}
	if r.least == r.greatest {
		// Everything from r.from on is one value.
		return r.least
	}
	selectRank(r.a[r.from:], k-r.from, r.least, 2*bits.Len(uint(len(r.a)-r.from)))
	r.from, r.least = k, r.a[k]
	return r.least
}

// selectRank permutes a, which holds no NaN and whose least value is
// least (or NaN if unknown), so that a[k] holds what an ascending sort
// would put there, with nothing greater before it and nothing smaller
// after it. It narrows [lo, hi) around k by partitions about a
// median-of-three pivot p: below p and the rest, or, when p is the
// range's least value, p's run and the rest, so runs of equal samples
// end the search at once. Pivots are deterministic; a range still
// unsettled after budget partitions is sorted instead, so a budget of
// 2·log2(n) bounds the worst case at O(n log n).
func selectRank(a []float64, k int, least float64, budget int) {
	lo, hi := 0, len(a)
	for ; hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return
		}
		r := a[lo:hi]
		x, y, z := r[0], r[len(r)/2], r[len(r)-1]
		p := max(min(x, y), min(max(x, y), z))
		if p == least {
			n := partitionAtMost(r, p)
			if k < lo+n {
				return
			}
			lo, least = lo+n, math.NaN()
			continue
		}
		// p is in the range, so whatever part of it holds k next, p
		// bounds it: from above on the left, as the least on the right.
		n := partitionBelow(r, p)
		if k < lo+n {
			hi = lo + n
		} else {
			lo, least = lo+n, p
		}
	}
}

// partitionBelow moves the elements of a below p to its front and
// returns how many there are. It has no data-dependent branch: each
// element is swapped to the boundary, which advances when it is below p.
func partitionBelow(a []float64, p float64) int {
	n := 0
	for i, v := range a {
		a[i] = a[n]
		a[n] = v
		d := 0
		if v < p {
			d = 1
		}
		n += d
	}
	return n
}

// partitionAtMost is partitionBelow for the elements of a at most p.
func partitionAtMost(a []float64, p float64) int {
	n := 0
	for i, v := range a {
		a[i] = a[n]
		a[n] = v
		d := 0
		if v <= p {
			d = 1
		}
		n += d
	}
	return n
}

// Quantile returns the named exact-quantile metric, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Quantile(name string) *Quantile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.quants[name]
	if !ok {
		q = &Quantile{mu: new(sync.Mutex)}
		r.quants[name] = q
	}
	return q
}
