package stats_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/fsstats"
	"repro/internal/stats"
)

// neighbourChi2 bins the pairs (k-th value of source i, k-th value of
// source i+1) over sources 0..n on a 10×10 grid and returns each grid's
// χ² against the uniform count, for k = 1, 2 and 3. draws(i) returns
// source i's first three values, each uniform on [0, 1). Independent
// sources give χ² ≈ 99 ± 14 (99 degrees of freedom); neighbours whose
// values are correlated pile onto a few cells.
func neighbourChi2(n int, draws func(i int) [3]float64) [3]float64 {
	const bins = 10
	var counts [3][bins * bins]int
	var prev [3]int
	for i := 0; i <= n; i++ {
		u := draws(i)
		for k := range prev {
			b := min(int(u[k]*bins), bins-1)
			if i > 0 {
				counts[k][prev[k]*bins+b]++
			}
			prev[k] = b
		}
	}
	want := float64(n) / (bins * bins)
	var chi2 [3]float64
	for k := range counts {
		for _, c := range counts[k] {
			d := float64(c) - want
			chi2[k] += d * d / want
		}
	}
	return chi2
}

// checkNeighbours fails t unless every χ² is within what independent
// pairs give.
func checkNeighbours(t *testing.T, what string, chi2 [3]float64) {
	t.Helper()
	t.Logf("%s: χ² of adjacent pairs' values 1-3: %.0f / %.0f / %.0f", what, chi2[0], chi2[1], chi2[2])
	for k, c := range chi2 {
		if c > 200 {
			t.Errorf("%s value %d: χ² of adjacent pairs = %.0f, want ≤ 200 (independent: 99 ± 14)", what, k+1, c)
		}
	}
}

// TestStreamNeighboursAreIndependent: the drives of one draw read
// independent values. Adjacent drives' first three draws, over 200,000
// drives, fill a 10×10 grid as uniformly as independent pairs do.
func TestStreamNeighboursAreIndependent(t *testing.T) {
	const seed, drives = 4242, 200_000
	var st stats.Stream
	r := rand.New(&st)
	checkNeighbours(t, "drives (4242, i)", neighbourChi2(drives, func(i int) [3]float64 {
		st.Reset(seed, uint64(i))
		return [3]float64{r.Float64(), r.Float64(), r.Float64()}
	}))
}

// TestGeneratorSeedNeighboursAreIndependent: the file-size and interrupt
// trace generators give independent draws for adjacent seeds, the way
// Figures 3 and 4 seed their systems (100+i). Over 20,000 seeds, each
// generator's first three values map back to the uniforms they were
// drawn from: sizes from Uniform{0, 2^40}, and the interarrivals of a
// one-chip cluster at one interrupt per second, which are Exp(1).
func TestGeneratorSeedNeighboursAreIndependent(t *testing.T) {
	const seeds = 20_000
	spec := fsstats.SystemSpec{Name: "uniform", Files: 3, Sizes: stats.Uniform{Lo: 0, Hi: 1 << 40}}
	checkNeighbours(t, "fsstats.Generate", neighbourChi2(seeds, func(i int) [3]float64 {
		s := fsstats.Generate(spec, int64(100+i))
		return [3]float64{float64(s[0]) / (1 << 40), float64(s[1]) / (1 << 40), float64(s[2]) / (1 << 40)}
	}))
	cluster := failure.ClusterSpec{Nodes: 1, ChipsPerNode: 1, PerChipRate: failure.SecondsPerYear, Shape: 1}
	checkNeighbours(t, "failure.GenerateTrace", neighbourChi2(seeds, func(i int) [3]float64 {
		ev := failure.GenerateTrace(cluster, 60/failure.SecondsPerYear, int64(100+i))
		at := [4]float64{0, ev[0].At, ev[1].At, ev[2].At}
		var u [3]float64
		for k := range u {
			u[k] = math.Exp(-(at[k+1] - at[k]))
		}
		return u
	}))
}
