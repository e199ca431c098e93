package obs

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// bruteRank is the reference nearest-rank quantile: the smallest sample
// such that at least q of the population is <= it.
func bruteRank(samples []float64, q float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	for i, v := range sorted {
		if float64(i+1)/float64(n) >= q {
			return v
		}
	}
	return sorted[n-1]
}

func TestQuantileExactAgainstBruteForce(t *testing.T) {
	// A deterministic but scrambled sample set (LCG, no global rand).
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		r := NewRegistry()
		q := r.Quantile("test.latency_s")
		x := uint64(12345)
		var samples []float64
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			v := float64(x%1000000) / 1e6
			samples = append(samples, v)
			q.Observe(v)
		}
		s := r.Snapshot().Quantiles["test.latency_s"]
		if s.Count != uint64(n) {
			t.Fatalf("n=%d: Count = %d", n, s.Count)
		}
		var sum, min, max float64
		min, max = samples[0], samples[0]
		for _, v := range samples {
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if math.Abs(s.Sum-sum) > 1e-12 || s.Min != min || s.Max != max {
			t.Fatalf("n=%d: sum/min/max = %v/%v/%v, want %v/%v/%v",
				n, s.Sum, s.Min, s.Max, sum, min, max)
		}
		for _, c := range []struct {
			q    float64
			got  float64
			name string
		}{
			{0.50, s.P50, "p50"}, {0.90, s.P90, "p90"},
			{0.99, s.P99, "p99"}, {0.999, s.P999, "p999"},
		} {
			if want := bruteRank(samples, c.q); c.got != want {
				t.Fatalf("n=%d: %s = %v, want %v", n, c.name, c.got, want)
			}
		}
	}
}

func TestQuantileNilSafe(t *testing.T) {
	var q *Quantile
	q.Observe(1)
	if q.Count() != 0 {
		t.Fatalf("nil quantile Count = %d", q.Count())
	}
	var r *Registry
	if r.Quantile("x.y") != nil {
		t.Fatal("nil registry returned a non-nil quantile")
	}
}

func TestSnapshotOmitsEmptyQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkg.ops.count").Inc()
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "quantiles") || strings.Contains(string(buf), "timeseries") {
		t.Fatalf("snapshot without analytics serialized analytics keys: %s", buf)
	}
	r.Quantile("pkg.latency.seconds").Observe(1)
	buf, err = json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "quantiles") {
		t.Fatalf("snapshot with a quantile lost it: %s", buf)
	}
}

// sortSnapshot is the sort-based snapshot Quantile took before it ranked
// by selection: sort.Float64s over a copy, then index the sorted set.
// Selection must agree with it on every field for every input.
func sortSnapshot(samples []float64) QuantileSnapshot {
	sorted := append([]float64(nil), samples...)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	s := QuantileSnapshot{Count: uint64(len(sorted)), Sum: finite(sum)}
	if len(sorted) == 0 {
		return s
	}
	sort.Float64s(sorted)
	s.Min = finite(sorted[0])
	s.Max = finite(sorted[len(sorted)-1])
	s.P50 = finite(sortedRank(sorted, 0.50))
	s.P90 = finite(sortedRank(sorted, 0.90))
	s.P99 = finite(sortedRank(sorted, 0.99))
	s.P999 = finite(sortedRank(sorted, 0.999))
	return s
}

// sortedRank is the nearest-rank q-quantile of an ascending, non-empty
// slice: index ceil(n·q)−1, clamped.
func sortedRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// fuzzAlphabet is what FuzzQuantileSnapshot's samples are drawn from: few
// enough values that duplicates are common, with zero, both infinities
// and NaN among them.
var fuzzAlphabet = []float64{
	0, math.NaN(), math.Inf(1), math.Inf(-1),
	1, 2, 3, 0.5, 0.25, 1e-9, 1e9, -1, -2.5, 7, 0.1, 42,
}

// fuzzSamples decodes fuzz input into n samples for column col. The
// first two bytes give n, up to three chunks and a bit; the rest is the
// pattern cycled through, one alphabet index per byte (shifted by col, so
// each op-timer column gets its own population).
func fuzzSamples(data []byte, col int) []float64 {
	if len(data) < 2 {
		return nil
	}
	n := int(binary.LittleEndian.Uint16(data)) % (3*quantChunk + 3)
	body := data[2:]
	if len(body) == 0 {
		body = []byte{0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = fuzzAlphabet[(int(body[i%len(body)])+col)%len(fuzzAlphabet)]
	}
	return out
}

// fuzzInput encodes n samples cycling through pattern for f.Add.
func fuzzInput(n int, pattern ...byte) []byte {
	return append(binary.LittleEndian.AppendUint16(nil, uint16(n)), pattern...)
}

// FuzzQuantileSnapshot checks that ranking by selection gives exactly the
// sort-based snapshot, for samples observed one at a time through
// Quantile.Observe and a row at a time through OpTimerSet.Observe, and
// that Percentile agrees with the sorted reference.
func FuzzQuantileSnapshot(f *testing.F) {
	f.Add(fuzzInput(0))
	f.Add(fuzzInput(1, 4))
	f.Add(fuzzInput(2, 4, 0))
	f.Add(fuzzInput(1000, 5))               // all equal
	f.Add(fuzzInput(1000, 1))               // NaN only
	f.Add(fuzzInput(777, 1, 4, 2, 0, 3, 5)) // NaNs, infinities, duplicates
	f.Add(fuzzInput(quantChunk-1, 4, 5, 6, 7, 8, 9, 10, 11, 12))
	f.Add(fuzzInput(quantChunk, 15, 14, 13, 12, 11, 10, 9))
	f.Add(fuzzInput(quantChunk+1, 0, 0, 0, 4, 1))
	f.Add(fuzzInput(2*quantChunk-1, 3, 2, 1, 0, 6, 5))
	f.Add(fuzzInput(2*quantChunk+1, 9, 13, 4, 4, 12, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry()
		r.EnableOpTimers()
		q := r.Quantile("fuzz.latency_s")
		for _, v := range fuzzSamples(data, 0) {
			q.Observe(v)
		}
		set := r.OpTimerSet("fuzz.op")
		cols := make([][]float64, 1+NumStages)
		for c := range cols {
			cols[c] = fuzzSamples(data, c)
		}
		var timer OpTimer
		for i := range cols[0] {
			ot := set.Start(0, &timer)
			for st := Stage(0); st < NumStages; st++ {
				ot.Add(st, cols[1+st][i])
			}
			set.Observe(ot, cols[0][i])
		}
		snap := r.Snapshot()
		check := func(name string, samples []float64) {
			if got, want := snap.Quantiles[name], sortSnapshot(samples); got != want {
				t.Fatalf("%s over %d samples: selection gave %+v, sort gives %+v", name, len(samples), got, want)
			}
		}
		check("fuzz.latency_s", cols[0])
		check("fuzz.op.latency_s", cols[0])
		for st := Stage(0); st < NumStages; st++ {
			check("fuzz.op.stage."+st.String()+"_s", cols[1+st])
		}
		if len(cols[0]) == 0 {
			return
		}
		sorted := append([]float64(nil), cols[0]...)
		sort.Float64s(sorted)
		for _, p := range []float64{1e-6, 0.25, 0.5, 0.999, 1} {
			got, want := Percentile(cols[0], p), sortedRank(sorted, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Percentile(%v) over %d samples = %v, sort gives %v", p, len(sorted), got, want)
			}
		}
	})
}

// TestSelectRankSortsWhenBudgetRunsOut drives selection's fallback: with
// too few partitions left to settle k, the rest of the range is sorted,
// and a[k] is still exact with nothing greater before it and nothing
// smaller after it.
func TestSelectRankSortsWhenBudgetRunsOut(t *testing.T) {
	x := uint64(7)
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, 1+trial%97)
		for i := range a {
			x = x*6364136223846793005 + 1442695040888963407
			a[i] = fuzzAlphabet[x>>33%uint64(len(fuzzAlphabet))]
			if a[i] != a[i] {
				a[i] = -7
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		k := int(x>>20) % len(a)
		budget := trial % 4
		selectRank(a, k, math.NaN(), budget)
		if a[k] != sorted[k] {
			t.Fatalf("n=%d k=%d budget=%d: a[k] = %v, want %v", len(a), k, budget, a[k], sorted[k])
		}
		for i, v := range a {
			if i < k && v > a[k] || i > k && v < a[k] {
				t.Fatalf("n=%d k=%d budget=%d: a[%d] = %v on the wrong side of %v", len(a), k, budget, i, v, a[k])
			}
		}
	}
}

// BenchmarkQuantileSnapshot snapshots the op-timer population of one
// sim_n1_faults_report rep: 11 quantiles of 91,264 samples each, the
// latency spread out and most stages zero or from a few values.
func BenchmarkQuantileSnapshot(b *testing.B) {
	r := NewRegistry()
	r.EnableOpTimers()
	set := r.OpTimerSet("bench.op")
	var timer OpTimer
	x := uint64(1)
	for i := 0; i < 91264; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ot := set.Start(0, &timer)
		ot.Add(StageQueue, float64(x>>40%1000)*1e-6)
		ot.Add(StageNet, 4.7e-4)
		ot.Add(StageRPC, 1e-4*float64(1+x>>20%3))
		ot.Add(StageDiskTransfer, float64(x>>30%50)*1e-5)
		if x>>50%10 == 0 {
			ot.Add(StageBackoff, 5e-3)
		}
		set.Observe(ot, float64(x>>12%100000)*1e-7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSnapshot = r.Snapshot()
	}
}

var benchSnapshot Snapshot

func BenchmarkQuantileObserve(b *testing.B) {
	r := NewRegistry()
	q := r.Quantile("bench.latency_s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Observe(float64(i))
	}
}
