package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestExponentialMean(t *testing.T) {
	d := Exponential{Rate: 0.5}
	r := rng()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	got := sum / n
	if math.Abs(got-2) > 0.05 {
		t.Fatalf("sample mean = %v, want ~2", got)
	}
	if d.Mean() != 2 {
		t.Fatalf("Mean() = %v, want 2", d.Mean())
	}
}

func TestWeibullMeanAndCDF(t *testing.T) {
	d := Weibull{Shape: 0.7, Scale: 100}
	r := rng()
	var sum float64
	var belowScale int
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		sum += v
		if v <= d.Scale {
			belowScale++
		}
	}
	got := sum / n
	want := d.Mean()
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("sample mean = %v, want ~%v", got, want)
	}
	// CDF(t) = 1 - exp(-(t/scale)^shape), so CDF(scale) = 1 - 1/e for
	// every shape.
	if frac, cdf := float64(belowScale)/n, 1-math.Exp(-1); math.Abs(frac-cdf) > 0.01 {
		t.Fatalf("%.4f of samples at or below the scale, want CDF(scale) = %.4f", frac, cdf)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	// Both sample by inversion, so the same uniforms give the same draws.
	w := Weibull{Shape: 1, Scale: 10}
	e := Exponential{Rate: 0.1}
	rw, re := rng(), rng()
	for i := 0; i < 1000; i++ {
		wv, ev := w.Sample(rw), e.Sample(re)
		if math.Abs(wv-ev) > 1e-12*ev {
			t.Fatalf("draw %d: Weibull(k=1) sampled %v, Exponential %v", i, wv, ev)
		}
	}
}

func TestLognormalCDFMedian(t *testing.T) {
	// The median of a lognormal is exp(mu): CDF(4096) = 0.5.
	d := Lognormal{Mu: math.Log(4096), Sigma: 2}
	r := rng()
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(r) <= 4096 {
			below++
		}
	}
	if frac := float64(below) / n; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("%.4f of samples at or below the median, want 0.5", frac)
	}
}

func TestParetoSampleAboveXm(t *testing.T) {
	d := Pareto{Xm: 3, Alpha: 2}
	r := rng()
	for i := 0; i < 1000; i++ {
		if v := d.Sample(r); v < 3 {
			t.Fatalf("Pareto sample %v below xm", v)
		}
	}
	if got := d.Mean(); got != 6 {
		t.Fatalf("Mean() = %v, want 6", got)
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("Mean() with alpha<=1 should be +Inf")
	}
}

func TestMixtureMeanAndSampling(t *testing.T) {
	m := Mixture{
		Components: []Dist{Constant{V: 1}, Constant{V: 10}},
		Weights:    []float64{3, 1},
	}
	if got, want := m.Mean(), (3*1+1*10)/4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
	r := rng()
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("component 1 drawn %.3f of the time, want ~0.75", frac)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Stddev = %v, want sqrt(2.5)", s.Stddev)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty summary N = %d", empty.N)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 0.5); got != 5 {
		t.Fatalf("P50 of [0,10] = %v, want 5", got)
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single-element percentile = %v, want 7", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if got := e.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", got)
	}
	if got := e.At(0); got != 0 {
		t.Fatalf("At(0) = %v, want 0", got)
	}
	if got := e.At(100); got != 1 {
		t.Fatalf("At(100) = %v, want 1", got)
	}
	xs, ys := e.Points(4)
	if len(xs) != 4 || ys[3] != 1 {
		t.Fatalf("Points = %v %v", xs, ys)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		e := NewECDF(vals)
		prev := -1.0
		for _, x := range vals {
			p := e.At(x)
			if p < 0 || p > 1 {
				return false
			}
			_ = prev
		}
		// Monotonicity over a sweep.
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		last := 0.0
		for i := 0; i <= 10; i++ {
			x := lo + (hi-lo)*float64(i)/10
			p := e.At(x)
			if p+1e-12 < last {
				return false
			}
			last = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLinearRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 1e-9 || math.Abs(f.Intercept-7) > 1e-9 || f.R2 < 0.999999 {
		t.Fatalf("fit = %+v, want slope 3 intercept 7 r2 1", f)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short input should error")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x should error")
	}
}

func TestFitWeibullRecoversParameters(t *testing.T) {
	truth := Weibull{Shape: 0.8, Scale: 250}
	r := rng()
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = truth.Sample(r)
	}
	got, err := FitWeibull(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Shape-truth.Shape)/truth.Shape > 0.1 {
		t.Fatalf("shape = %v, want ~%v", got.Shape, truth.Shape)
	}
	if math.Abs(got.Scale-truth.Scale)/truth.Scale > 0.1 {
		t.Fatalf("scale = %v, want ~%v", got.Scale, truth.Scale)
	}
}

func TestFitWeibullDistinguishesExponential(t *testing.T) {
	// An exponential sample should fit with shape ~1; a decreasing-hazard
	// sample should fit with shape well below 1. This is the statistical
	// heart of the FAST'07 "no bathtub" result.
	r := rng()
	expSample := make([]float64, 4000)
	for i := range expSample {
		expSample[i] = Exponential{Rate: 1.0 / 100}.Sample(r)
	}
	wSample := make([]float64, 4000)
	for i := range wSample {
		wSample[i] = Weibull{Shape: 0.6, Scale: 100}.Sample(r)
	}
	fe, err := FitWeibull(expSample)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := FitWeibull(wSample)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Shape < 0.9 || fe.Shape > 1.1 {
		t.Fatalf("exponential sample fit shape %v, want ~1", fe.Shape)
	}
	if fw.Shape > 0.7 {
		t.Fatalf("weibull(0.6) sample fit shape %v, want < 0.7", fw.Shape)
	}
}

func TestDistributionSamplesNonNegativeProperty(t *testing.T) {
	r := rng()
	dists := []Dist{
		Exponential{Rate: 2},
		Weibull{Shape: 0.7, Scale: 10},
		Lognormal{Mu: 0, Sigma: 1},
		Pareto{Xm: 1, Alpha: 1.5},
		Uniform{Lo: 0, Hi: 5},
	}
	for _, d := range dists {
		for i := 0; i < 1000; i++ {
			if v := d.Sample(r); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%T sample %v invalid", d, v)
			}
		}
	}
}
