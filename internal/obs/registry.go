//lint:allowfile goroutine -- sanctioned site: one registry is shared by parallel shard runners; registration and Snapshot lock, and the tallies CounterFunc reads are plain ints that Snapshot reads only after the runs return

// Package obs is the deterministic observability layer shared by every
// substrate in this repository: a metrics registry (counters, gauges,
// fixed-bucket histograms) whose snapshots serialize to stable-ordered
// JSON, and a span tracer keyed to simulated time that emits Chrome
// trace-event JSON (viewable in Perfetto or chrome://tracing).
//
// Three properties drive the design:
//
//   - Determinism. Every value recorded is derived from simulation state,
//     never from wall clocks, map iteration order, or goroutine
//     interleaving in the single-threaded simulators. Snapshots are
//     serialized with sorted keys, so two runs with the same seed produce
//     byte-identical output — which makes metrics diffable across commits
//     and lets tests assert on whole snapshots.
//
//   - One record per count. A model keeps each count as a plain tally
//     its results read and registers a CounterFunc over it, so a count
//     costs one add with or without a registry. *Counter is for counts
//     only the registry holds (the PLFS library's, op-timer
//     bottlenecks, incast's). *Counter, *Histogram and *Tracer are
//     nil-safe: on an uninstrumented run a probe site pays one branch.
//
//   - Runs that share a registry: counters and histogram counts sum
//     over every run registered under a name, and a gauge holds the last
//     registered run's value. A registry outlives its runs, so a
//     function registered with it captures only the small tally struct
//     it reads, never the model, which is then freed after its run.
//
// The registry knows nothing about the simulation kernel (it works in
// plain float64 seconds), so it sits below every other package.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero of a nil
// *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Buckets[i]; one implicit overflow bucket counts the
// rest. Fixed buckets (rather than adaptive ones) keep snapshots
// comparable across runs and configurations.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // sorted upper bounds
	counts  []uint64  // len(buckets)+1, last is overflow
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	// The first bucket whose bound is >= v, by sort.SearchFloat64s's own
	// search without its closure: NaN passes every bound and lands in
	// the overflow bucket.
	i, j := 0, len(h.buckets)
	for i < j {
		m := int(uint(i+j) >> 1)
		if !(h.buckets[m] >= v) {
			i = m + 1
		} else {
			j = m
		}
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Buckets: append([]float64(nil), h.buckets...),
		Counts:  append([]uint64(nil), h.counts...),
		Count:   h.count,
		Sum:     finite(h.sum),
	}
	if h.count > 0 {
		s.Min, s.Max = finite(h.min), finite(h.max)
	}
	return s
}

// TimeBuckets returns the standard sim-time bucket bounds, exponential
// from 1 microsecond to 1000 seconds — wide enough for RPC latencies and
// whole checkpoint phases alike.
func TimeBuckets() []float64 {
	return ExpBuckets(1e-6, 10, 10)
}

// CountBuckets returns power-of-two bounds 1..1024 for small-integer
// distributions (queue depths, fan-outs).
func CountBuckets() []float64 {
	return ExpBuckets(1, 2, 11)
}

// ExpBuckets returns n bounds starting at start, each factor times the
// previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named instruments. The zero value of a nil *Registry is
// valid: every lookup returns a nil instrument, so uninstrumented runs
// cost one branch per probe site.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	counterFns map[string][]func() int64
	gaugeFns   map[string]func() float64
	hists      map[string]*Histogram
	quants     map[string]*Quantile
	series     map[string]*TimeSeries

	// Opt-in analytics switches; see EnableOpTimers and EnableTimeSeries.
	// Both default off, so a plain registry's snapshot has no quantile or
	// series keys: the default shape TestFaultFreeRunMatchesPrePRGolden
	// pins.
	opTimers     bool
	seriesWindow float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		counterFns: make(map[string][]func() int64),
		gaugeFns:   make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		quants:     make(map[string]*Quantile),
		series:     make(map[string]*TimeSeries),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry. It panics if the name
// is registered as a CounterFunc: the two would report one count twice.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counterFns[name]; ok {
		panic(fmt.Sprintf("obs: counter %q is already registered as a CounterFunc", name))
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers fn as one source of the named counter. Snapshot
// reports the sum of every function registered under the name, which is
// the total a Counter shared by the same runs would hold; fn is called
// only by Snapshot, after the runs it reads have returned. It panics if
// the name is registered as a Counter. A no-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: counter %q is already registered as a Counter", name))
	}
	r.counterFns[name] = append(r.counterFns[name], fn)
}

// GaugeFunc registers a callback evaluated lazily at snapshot time —
// the right shape for end-of-run values (utilizations, accumulated time
// splits, high-water marks) that would otherwise need hot-path updates.
// Re-registering a name replaces the callback, so the gauge holds the
// last registered run's value.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram with the given bucket bounds,
// creating it on first use (an existing histogram keeps its original
// buckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), buckets...)
		sort.Float64s(b)
		h = &Histogram{buckets: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the serialized state of one histogram.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"`
	Counts  []uint64  `json:"counts"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
}

// Snapshot is a point-in-time copy of every instrument. Maps serialize
// with sorted keys under encoding/json, so MarshalJSON output is
// byte-stable for identical values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`

	// Quantiles and Series exist only on analytics-enabled runs; omitempty
	// leaves quantiles out of a default snapshot, whose shape
	// TestFaultFreeRunMatchesPrePRGolden pins. Series feed the report's
	// sparklines and never serialize: WriteSeriesCSV is their one file.
	Quantiles map[string]QuantileSnapshot   `json:"quantiles,omitempty"`
	Series    map[string]TimeSeriesSnapshot `json:"-"`
}

// Snapshot captures current values, evaluating counter and gauge
// callbacks. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(true) }

// snapshot is Snapshot, leaving Series empty unless withSeries.
func (r *Registry) snapshot(withSeries bool) Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters, counterFns, fns := maps.Clone(r.counters), maps.Clone(r.counterFns), maps.Clone(r.gaugeFns)
	hists, quants := maps.Clone(r.hists), maps.Clone(r.quants)
	var series map[string]*TimeSeries
	if withSeries {
		series = maps.Clone(r.series)
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, fns := range counterFns {
		var n int64
		for _, fn := range fns {
			n += fn()
		}
		s.Counters[k] = n
	}
	for k, fn := range fns {
		s.Gauges[k] = finite(fn())
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	if len(quants) > 0 {
		s.Quantiles = make(map[string]QuantileSnapshot, len(quants))
		var scratch []float64
		for k, q := range quants {
			s.Quantiles[k], scratch = q.snapshot(scratch)
		}
	}
	if len(series) > 0 {
		s.Series = make(map[string]TimeSeriesSnapshot, len(series))
		for k, ts := range series {
			s.Series[k] = ts.snapshot()
		}
	}
	return s
}

// finite clamps NaN and infinities to zero so snapshots always serialize
// (encoding/json rejects non-finite floats).
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// WriteJSON writes a snapshot, without its series, as the bytes of
// json.MarshalIndent(snapshot, "", "  ") and a newline. It writes one
// entry at a time, so a figure's file (28 MB for the rebuild figure) is
// never held in memory whole.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.snapshot(false)
	bw := bufio.NewWriter(w)
	err := writeMap(bw, "{\n  \"counters\": ", s.Counters)
	if err == nil {
		err = writeMap(bw, ",\n  \"gauges\": ", s.Gauges)
	}
	if err == nil {
		err = writeMap(bw, ",\n  \"histograms\": ", s.Histograms)
	}
	if err == nil && len(s.Quantiles) > 0 {
		err = writeMap(bw, ",\n  \"quantiles\": ", s.Quantiles)
	}
	if err != nil {
		return err
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// writeMap writes head, then m with its keys sorted, laid out as
// json.MarshalIndent lays out a map one level deep.
func writeMap[V any](w *bufio.Writer, head string, m map[string]V) error {
	w.WriteString(head)
	if len(m) == 0 {
		w.WriteString("{}")
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var val bytes.Buffer
	sep := "{\n    "
	for _, k := range keys {
		key, _ := json.Marshal(k) // a string always marshals
		v, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		val.Reset()
		json.Indent(&val, v, "    ", "  ") // v is valid JSON
		w.WriteString(sep)
		w.Write(key)
		w.WriteString(": ")
		w.Write(val.Bytes())
		sep = ",\n    "
	}
	w.WriteString("\n  }")
	return nil
}
