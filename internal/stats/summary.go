package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics and moments of a sample.
type Summary struct {
	N              int
	Min, Max       float64
	Mean, Stddev   float64
	P50, P90, P99  float64
	Sum            float64
	CoefficientVar float64
}

// Summarize computes a Summary over values. It copies and sorts internally;
// the input is not modified.
func Summarize(values []float64) Summary {
	var s Summary
	s.N = len(values)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	for _, v := range sorted {
		s.Sum += v
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, v := range sorted {
		d := v - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CoefficientVar = s.Stddev / s.Mean
	}
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 1) of an
// already-sorted sample using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from values (copied, then sorted).
func NewECDF(values []float64) *ECDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Points returns up to n (x, F(x)) pairs spanning the sample, suitable for
// plotting a CDF curve like Figure 3 of the report.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(n-1, 1)
		xs[i] = e.sorted[idx]
		ys[i] = float64(idx+1) / float64(len(e.sorted))
	}
	return xs, ys
}
