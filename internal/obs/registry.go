//lint:allowfile goroutine -- sanctioned site: one registry is shared by parallel shard runners; counters use atomics so sim-time code stays lock-free

// Package obs is the deterministic observability layer shared by every
// substrate in this repository: a metrics registry (counters, gauges,
// fixed-bucket histograms) whose snapshots serialize to stable-ordered
// JSON, and a span tracer keyed to simulated time that emits Chrome
// trace-event JSON (viewable in Perfetto or chrome://tracing).
//
// Two properties drive the design:
//
//   - Determinism. Every value recorded is derived from simulation state,
//     never from wall clocks, map iteration order, or goroutine
//     interleaving in the single-threaded simulators. Snapshots are
//     serialized with sorted keys, so two runs with the same seed produce
//     byte-identical output — which makes metrics diffable across commits
//     and lets tests assert on whole snapshots.
//
//   - Near-zero cost when disabled. All instrument handles (*Counter,
//     *Gauge, *Histogram, *Tracer) are nil-safe: methods on nil receivers
//     are no-ops that compile to a pointer test. Code instruments
//     unconditionally; when no registry is attached the handles are nil
//     and the hot path pays a single branch.
//
// The registry knows nothing about the simulation kernel (it works in
// plain float64 seconds), so it sits below every other package.
package obs

import (
	"encoding/json"
	"io"
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

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
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
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	quants   map[string]*Quantile
	series   map[string]*TimeSeries

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
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		quants:   make(map[string]*Quantile),
		series:   make(map[string]*TimeSeries),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated lazily at snapshot time —
// the right shape for end-of-run values (utilizations, accumulated time
// splits) that would otherwise need hot-path updates. Re-registering a
// name replaces the callback (later simulation instances win).
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
	// leaves both keys out of a default snapshot, whose shape
	// TestFaultFreeRunMatchesPrePRGolden pins.
	Quantiles map[string]QuantileSnapshot   `json:"quantiles,omitempty"`
	Series    map[string]TimeSeriesSnapshot `json:"timeseries,omitempty"`
}

// Snapshot captures current values, evaluating gauge callbacks. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	quants := make(map[string]*Quantile, len(r.quants))
	for k, v := range r.quants {
		quants[k] = v
	}
	series := make(map[string]*TimeSeries, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = finite(g.Value())
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

// WriteJSON serializes a snapshot as indented, stable-ordered JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
