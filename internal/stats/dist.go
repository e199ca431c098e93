// Package stats provides the probability distributions, empirical CDFs,
// summary statistics, and model-fitting helpers used across the PDSI
// reproduction: Weibull hazards for the failure characterization work
// (Schroeder & Gibson, FAST'07), lognormal file-size populations for the
// fsstats survey, and exponential/Pareto interarrivals for workloads.
package stats

import (
	"math"
	"math/rand"
)

// Dist is a sampleable distribution. Every implementation is deterministic
// given the *rand.Rand it samples from.
type Dist interface {
	// Sample draws one value.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Exponential is the memoryless distribution with the given rate (1/mean).
type Exponential struct{ Rate float64 }

// Sample draws an exponential variate via inversion.
func (d Exponential) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / d.Rate
}

// Mean returns 1/Rate.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// Weibull has shape k and scale lambda. The FAST'07 disk-replacement study
// found field replacement data fit Weibull shapes around 0.7-0.8 (a
// decreasing hazard early, then steadily increasing replacement rates with
// age) rather than the "bathtub" assumed by vendors.
type Weibull struct {
	Shape float64 // k
	Scale float64 // lambda
}

// Sample draws a Weibull variate via inversion.
func (d Weibull) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return d.Scale * math.Pow(-math.Log(u), 1/d.Shape)
}

// Mean returns lambda * Gamma(1 + 1/k).
func (d Weibull) Mean() float64 { return d.Scale * math.Gamma(1+1/d.Shape) }

// Lognormal has the given mu and sigma of the underlying normal. File size
// distributions in the Dayal fsstats survey are heavy-tailed and well
// approximated by lognormals with large sigma.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a lognormal variate.
func (d Lognormal) Sample(r *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (d Lognormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Pareto is the heavy-tailed distribution with minimum xm and tail index
// alpha, used for burst sizes and large-file tails.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a Pareto variate via inversion.
func (d Pareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return d.Xm / math.Pow(u, 1/d.Alpha)
}

// Mean returns alpha*xm/(alpha-1) for alpha > 1, +Inf otherwise.
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

// Uniform is uniform on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws a uniform variate.
func (d Uniform) Sample(r *rand.Rand) float64 { return d.Lo + (d.Hi-d.Lo)*r.Float64() }

// Mean returns the midpoint.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Constant always returns V; it lets deterministic parameters flow through
// APIs that accept a Dist.
type Constant struct{ V float64 }

// Sample returns V.
func (d Constant) Sample(*rand.Rand) float64 { return d.V }

// Mean returns V.
func (d Constant) Mean() float64 { return d.V }

// Mixture samples component i with probability Weights[i] (weights need
// not be normalized). It builds multi-modal populations such as "mostly
// small files plus a heavy tail of checkpoint files".
type Mixture struct {
	Components []Dist
	Weights    []float64
}

// Sample picks a component by weight, then samples it.
func (d Mixture) Sample(r *rand.Rand) float64 {
	total := 0.0
	for _, w := range d.Weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range d.Weights {
		if u < w {
			return d.Components[i].Sample(r)
		}
		u -= w
	}
	return d.Components[len(d.Components)-1].Sample(r)
}

// Mean returns the weight-averaged component mean.
func (d Mixture) Mean() float64 {
	total, m := 0.0, 0.0
	for i, w := range d.Weights {
		total += w
		m += w * d.Components[i].Mean()
	}
	if total == 0 {
		return 0
	}
	return m / total
}
