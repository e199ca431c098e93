package stats

import (
	"errors"
	"math"
	"sort"
)

// LinearFit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
}

// FitLinear performs ordinary least squares on (xs, ys). It is used to test
// the report's claim that application interrupts grow linearly with the
// number of processor chips (Figure 4).
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, errors.New("stats: FitLinear needs >= 2 equal-length samples")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	var f LinearFit
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := f.Slope*xs[i] + f.Intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// FitWeibull estimates Weibull shape and scale from a complete
// (uncensored) sample using the standard regression on the linearized CDF:
// ln(-ln(1-F)) = k ln(t) - k ln(lambda) with median-rank plotting positions.
// The FAST'07 analysis used exactly this family of fits to show field disk
// replacement data has shape < 1 early and overall increasing hazard,
// contradicting the constant-rate (exponential, k = 1) vendor model.
func FitWeibull(sample []float64) (Weibull, error) {
	if len(sample) < 3 {
		return Weibull{}, errors.New("stats: FitWeibull needs >= 3 samples")
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	xs := make([]float64, 0, len(s))
	ys := make([]float64, 0, len(s))
	n := float64(len(s))
	for i, t := range s {
		if t <= 0 {
			continue
		}
		// Bernard's median rank approximation.
		f := (float64(i+1) - 0.3) / (n + 0.4)
		xs = append(xs, math.Log(t))
		ys = append(ys, math.Log(-math.Log(1-f)))
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		return Weibull{}, err
	}
	k := fit.Slope
	if k <= 0 {
		return Weibull{}, errors.New("stats: non-positive shape estimate")
	}
	lambda := math.Exp(-fit.Intercept / k)
	return Weibull{Shape: k, Scale: lambda}, nil
}
