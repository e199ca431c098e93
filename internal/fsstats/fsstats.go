// Package fsstats reproduces the PDSI file-system statistics survey
// (Dayal, "Characterizing HEC Storage Systems at Rest", CMU-PDL-08-109;
// Figure 3 of the report): static surveys of file size distributions
// across production HEC file systems, published so storage designers
// could ground capacity and metadata decisions in data. Since the actual
// survey hosts are gone, the package generates synthetic populations
// calibrated to the survey's headline shape — most files are small, most
// bytes live in a few huge files — and reimplements the fsstats-style
// survey reporting over them.
package fsstats

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// SystemSpec describes one surveyed file system's synthetic population.
type SystemSpec struct {
	Name  string
	Files int
	// Sizes generates file sizes in bytes.
	Sizes stats.Dist
}

// ElevenSystems returns populations standing in for the eleven
// non-archival file systems of Figure 3: scratch, project, and home
// volumes with varying medians and tail weights. All are
// lognormal-with-heavy-tail mixtures; parameters vary the median from a
// few hundred bytes to ~100 KiB as the survey observed.
func ElevenSystems(filesPerSystem int) []SystemSpec {
	mk := func(name string, mu, sigma float64, tailWeight float64) SystemSpec {
		return SystemSpec{
			Name:  name,
			Files: filesPerSystem,
			Sizes: stats.Mixture{
				Components: []stats.Dist{
					stats.Lognormal{Mu: mu, Sigma: sigma},
					// Checkpoint/dataset tail: hundreds of MB to tens of GB.
					stats.Pareto{Xm: 256 << 20, Alpha: 1.3},
				},
				Weights: []float64{1 - tailWeight, tailWeight},
			},
		}
	}
	return []SystemSpec{
		mk("scratch1", math.Log(2048), 2.4, 0.004),
		mk("scratch2", math.Log(8192), 2.6, 0.006),
		mk("scratch3", math.Log(32768), 2.2, 0.01),
		mk("project1", math.Log(4096), 2.8, 0.003),
		mk("project2", math.Log(16384), 2.4, 0.005),
		mk("home1", math.Log(700), 2.3, 0.0005),
		mk("home2", math.Log(1500), 2.5, 0.001),
		mk("apps1", math.Log(6000), 2.1, 0.0008),
		mk("wrkstn-backup", math.Log(900), 2.7, 0.0004),
		mk("viz1", math.Log(65536), 2.5, 0.012),
		mk("archive-stage", math.Log(100000), 2.9, 0.02),
	}
}

// Generate draws the population's file sizes.
func Generate(spec SystemSpec, seed int64) []int64 {
	if spec.Files < 1 || spec.Sizes == nil {
		panic(fmt.Sprintf("fsstats: invalid spec %+v", spec))
	}
	r := rand.New(rand.NewSource(seed))
	sizes := make([]int64, spec.Files)
	for i := range sizes {
		s := spec.Sizes.Sample(r)
		if s < 0 {
			s = 0
		}
		if s > 1<<46 {
			s = 1 << 46
		}
		sizes[i] = int64(s)
	}
	return sizes
}

// Report is an fsstats-style survey of one file system.
type Report struct {
	Name       string
	Count      int
	TotalBytes int64
	MeanSize   float64
	MedianSize float64
	P90Size    float64
	P99Size    float64

	// FractionFilesUnder maps thresholds to the fraction of *files* at or
	// under them; FractionBytesOver maps thresholds to the fraction of
	// *bytes* in files strictly larger.
	FractionFilesUnder map[int64]float64
	FractionBytesOver  map[int64]float64

	cdf *stats.ECDF
}

// Thresholds used in survey tables.
var Thresholds = []int64{4 << 10, 64 << 10, 1 << 20, 64 << 20, 1 << 30}

// Survey computes the report over a population.
func Survey(name string, sizes []int64) Report {
	rep := Report{
		Name:               name,
		Count:              len(sizes),
		FractionFilesUnder: make(map[int64]float64),
		FractionBytesOver:  make(map[int64]float64),
	}
	if len(sizes) == 0 {
		return rep
	}
	fs := make([]float64, len(sizes))
	for i, s := range sizes {
		fs[i] = float64(s)
		rep.TotalBytes += s
	}
	sum := stats.Summarize(fs)
	rep.MeanSize = sum.Mean
	rep.MedianSize = sum.P50
	rep.P90Size = sum.P90
	rep.P99Size = sum.P99
	rep.cdf = stats.NewECDF(fs)
	for _, th := range Thresholds {
		rep.FractionFilesUnder[th] = rep.cdf.At(float64(th))
		var over int64
		for _, s := range sizes {
			if s > th {
				over += s
			}
		}
		rep.FractionBytesOver[th] = float64(over) / float64(rep.TotalBytes)
	}
	return rep
}

// CDFPoints returns n (size, fraction) pairs of the file-size CDF.
func (r Report) CDFPoints(n int) (sizes, fractions []float64) {
	if r.cdf == nil {
		return nil, nil
	}
	return r.cdf.Points(n)
}
