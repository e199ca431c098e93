package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d", c.Value())
	}
	h := r.Histogram("z", TimeBuckets())
	h.Observe(1)
	r.CounterFunc("n", func() int64 { return 1 })
	r.GaugeFunc("f", func() float64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("second lookup returned a different counter")
	}
	r.GaugeFunc("util", func() float64 { return 0.25 })
	r.GaugeFunc("util", func() float64 { return 0.75 })
	if got := r.Snapshot().Gauges["util"]; got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75 (the last registration wins)", got)
	}
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	wantCounts := []uint64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	if s.Count != 5 || s.Min != 0.5 || s.Max != 5000 {
		t.Fatalf("summary = count %d min %v max %v", s.Count, s.Min, s.Max)
	}
	if got, want := s.Sum, 0.5+5+5+50+5000; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

// TestCounterFuncSumsEveryRegistration: a count registered by several
// runs under one name reads as their sum, the total one Counter shared
// by those runs would hold, and each function is read at snapshot time.
func TestCounterFuncSumsEveryRegistration(t *testing.T) {
	r := NewRegistry()
	shared := r.Counter("shared.count")
	tallies := []int64{0, 0, 0}
	for i := range tallies {
		r.CounterFunc("runs.count", func() int64 { return tallies[i] })
	}
	for i, n := range []int64{3, 0, 39} {
		tallies[i] = n
		shared.Add(n)
	}
	s := r.Snapshot()
	if got, want := s.Counters["runs.count"], shared.Value(); got != want || got != 42 {
		t.Fatalf("runs.count = %d, want the shared counter's %d (42)", got, want)
	}
}

// TestCounterKindsDoNotMix: a name registered both as a Counter and as
// a CounterFunc would report one count from two records, so either
// order panics.
func TestCounterKindsDoNotMix(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then func(*Registry)
	}{
		{"Counter then CounterFunc",
			func(r *Registry) { r.Counter("x.count") },
			func(r *Registry) { r.CounterFunc("x.count", func() int64 { return 0 }) }},
		{"CounterFunc then Counter",
			func(r *Registry) { r.CounterFunc("x.count", func() int64 { return 0 }) },
			func(r *Registry) { r.Counter("x.count") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.first(r)
			defer func() {
				if recover() == nil {
					t.Fatal("registering both kinds under one name did not panic")
				}
			}()
			tc.then(r)
		})
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("live", func() float64 { return v })
	v = 42
	if got := r.Snapshot().Gauges["live"]; got != 42 {
		t.Fatalf("gauge func = %v, want 42 (lazy evaluation)", got)
	}
}

func TestSnapshotJSONIsStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in different orders across the two builds.
		names := []string{"zeta", "alpha", "mid"}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
			v := float64(len(n)) / 3
			r.GaugeFunc("g."+n, func() float64 { return v })
			r.CounterFunc("f."+n, func() int64 { return int64(len(n)) })
			r.Histogram("h."+n, TimeBuckets()).Observe(1e-3)
		}
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Keys serialize sorted.
	out := a.String()
	if strings.Index(out, `"alpha"`) > strings.Index(out, `"zeta"`) {
		t.Fatalf("keys not sorted:\n%s", out)
	}
	// And the output round-trips as JSON.
	var s Snapshot
	if err := json.Unmarshal(a.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["zeta"] != 4 {
		t.Fatalf("round-trip lost data: %+v", s)
	}
}

func TestSnapshotClampsNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("bad", func() float64 { return 1.0 / zero() })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("non-finite gauge broke serialization: %v", err)
	}
	if got := r.Snapshot().Gauges["bad"]; got != 0 {
		t.Fatalf("non-finite gauge = %v, want 0", got)
	}
}

func TestSnapshotClampsNonFiniteHistograms(t *testing.T) {
	for _, tc := range []struct {
		v      float64
		counts []uint64
	}{
		{math.Inf(1), []uint64{0, 0, 1}},
		{math.Inf(-1), []uint64{1, 0, 0}},
		{math.NaN(), []uint64{0, 0, 1}}, // NaN passes every bound: overflow
	} {
		r := NewRegistry()
		r.Histogram("pkg.lat", []float64{1, 10}).Observe(tc.v)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("observing %v broke serialization: %v", tc.v, err)
		}
		h := r.Snapshot().Histograms["pkg.lat"]
		if h.Sum != 0 || h.Min != 0 || h.Max != 0 {
			t.Fatalf("observing %v: sum/min/max = %v/%v/%v, want 0/0/0", tc.v, h.Sum, h.Min, h.Max)
		}
		if h.Count != 1 || !slices.Equal(h.Counts, tc.counts) {
			t.Fatalf("observing %v: count %d, buckets %v, want 1 and %v", tc.v, h.Count, h.Counts, tc.counts)
		}
	}
}

// zero defeats constant folding so 1/0 is a runtime +Inf, not a compile
// error.
func zero() float64 { return 0 }

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if n := len(TimeBuckets()); n != 10 {
		t.Fatalf("TimeBuckets len = %d", n)
	}
}

// TestWriteJSONMatchesMarshalIndent: WriteJSON streams the snapshot one
// entry at a time, and its bytes must be json.MarshalIndent's for every
// section shape: empty maps, omitted and present quantiles, histograms
// with and without samples, and keys JSON escapes.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	empty := NewRegistry()
	full := NewRegistry()
	full.EnableOpTimers()
	full.Counter("a.count").Add(3)
	full.CounterFunc("b<&>.count", func() int64 { return 7 })
	full.GaugeFunc("g.util", func() float64 { return 0.1 + 0.2 })
	full.GaugeFunc("g.bad", func() float64 { return math.Inf(1) })
	full.Histogram("h.empty_s", TimeBuckets())
	full.Histogram("h.lat_s", []float64{1, 10}).Observe(5)
	set := full.OpTimerSet("pfs.write")
	var ot OpTimer
	set.Observe(set.Start(0, &ot), 0.004)
	for name, r := range map[string]*Registry{"empty": empty, "full": full} {
		want, err := json.MarshalIndent(r.snapshot(false), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var got bytes.Buffer
		if err := r.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteJSON differs from MarshalIndent:\n%s\nwant\n%s", name, got.String(), want)
		}
	}
}

// TestHistogramsShareOneLayout: histograms registered with equal bounds,
// in any order, share the registry's one sorted copy, and so do their
// snapshots; a caller that changes its slice after registering changes
// nothing, and a different set of bounds gets its own copy.
func TestHistogramsShareOneLayout(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{3, 1, 2}
	a := r.Histogram("pkg.a.seconds", bounds)
	b := r.Histogram("pkg.b.seconds", []float64{1, 2, 3})
	c := r.Histogram("pkg.c.seconds", []float64{1, 2, 4})
	bounds[0] = 99
	a.Observe(2.5)
	s := r.Snapshot()
	sa, sb, sc := s.Histograms["pkg.a.seconds"], s.Histograms["pkg.b.seconds"], s.Histograms["pkg.c.seconds"]
	if &a.buckets[0] != &b.buckets[0] || &sa.Buckets[0] != &a.buckets[0] || &sb.Buckets[0] != &a.buckets[0] {
		t.Fatal("histograms of one layout, or their snapshots, hold separate copies of the bounds")
	}
	if &c.buckets[0] == &a.buckets[0] {
		t.Fatal("different bounds share one layout")
	}
	if want := []float64{1, 2, 3}; !slices.Equal(sa.Buckets, want) || !slices.Equal(sc.Buckets, []float64{1, 2, 4}) {
		t.Fatalf("bounds = %v and %v, want %v and [1 2 4]", sa.Buckets, sc.Buckets, want)
	}
	if want := []uint64{0, 0, 1, 0}; !slices.Equal(sa.Counts, want) {
		t.Fatalf("counts = %v, want %v", sa.Counts, want)
	}
}
