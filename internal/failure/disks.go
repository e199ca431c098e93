package failure

import (
	"math/rand"
	"sort"

	"repro/internal/stats"
)

// This file reproduces the statistical machinery of the FAST'07 study
// "Disk failures in the real world: What does an MTTF of 1,000,000 hours
// mean to you?" (Schroeder & Gibson), whose conclusions the report
// highlights: field replacement rates far exceed datasheet AFRs, show no
// infant-mortality "bathtub", grow steadily with age, look similar for
// enterprise and nearline drives, and have bursty, correlated arrivals.

// DriveClass parameterizes a drive population.
type DriveClass struct {
	Name string
	// DatasheetMTTFHours is the vendor claim (e.g. 1,000,000 hours).
	DatasheetMTTFHours float64
	// Lifetime is the true time-to-replacement distribution in hours. A
	// Weibull with shape > 1 yields replacement rates that grow with age.
	Lifetime stats.Weibull
}

// EnterpriseClass mirrors a 1M-hour-MTTF FC/SCSI drive whose observed
// replacement behaviour is far worse than the datasheet.
func EnterpriseClass() DriveClass {
	return DriveClass{
		Name:               "enterprise",
		DatasheetMTTFHours: 1.0e6,
		// Increasing hazard calibrated to the field observation: ~2-3% ARR
		// in year one climbing toward ~6% by year five — several times the
		// datasheet's implied 0.88%.
		Lifetime: stats.Weibull{Shape: 1.4, Scale: 1.5e5},
	}
}

// NearlineClass mirrors a desktop/SATA drive with a lower datasheet MTTF
// but essentially similar field behaviour — the study's surprise.
func NearlineClass() DriveClass {
	return DriveClass{
		Name:               "nearline",
		DatasheetMTTFHours: 6.0e5,
		Lifetime:           stats.Weibull{Shape: 1.35, Scale: 1.4e5},
	}
}

// DatasheetAFR converts an MTTF claim into the annual failure rate the
// datasheet implies.
func (c DriveClass) DatasheetAFR() float64 {
	return 8760 / c.DatasheetMTTFHours
}

// FleetYearStats reports observed replacements for one deployment year.
type FleetYearStats struct {
	Year         int
	DriveYears   float64
	Replacements int
	// ARR is the annual replacement rate: replacements per drive-year.
	ARR float64
}

// SimulateFleet deploys n drives at time zero and replaces each drive on
// failure with a new one (whose age restarts), observing the fleet for
// years. It reports per-deployment-year replacement statistics: with an
// increasing-hazard lifetime the early years show low ARR that grows
// steadily — no infant-mortality spike, no stable middle — because the
// population's age mix shifts upward.
func SimulateFleet(class DriveClass, n int, years int, seed int64) []FleetYearStats {
	r := rand.New(rand.NewSource(seed))
	horizon := float64(years) * 8760
	type drive struct{ deployed, fails float64 }
	drives := make([]drive, n)
	var events []float64
	for i := range drives {
		drives[i] = drive{deployed: 0, fails: class.Lifetime.Sample(r)}
	}
	for i := range drives {
		for drives[i].deployed+drives[i].fails < horizon {
			t := drives[i].deployed + drives[i].fails
			events = append(events, t)
			drives[i] = drive{deployed: t, fails: class.Lifetime.Sample(r)}
		}
	}
	out := make([]FleetYearStats, years)
	for y := 0; y < years; y++ {
		out[y] = FleetYearStats{Year: y + 1, DriveYears: float64(n)}
	}
	for _, t := range events {
		y := int(t / 8760)
		if y >= 0 && y < years {
			out[y].Replacements++
		}
	}
	for y := range out {
		out[y].ARR = float64(out[y].Replacements) / out[y].DriveYears
	}
	return out
}

// ObservedAFR returns the fleet-average annual replacement rate over the
// whole observation window.
func ObservedAFR(statsPerYear []FleetYearStats) float64 {
	var repl int
	var dy float64
	for _, s := range statsPerYear {
		repl += s.Replacements
		dy += s.DriveYears
	}
	if dy == 0 {
		return 0
	}
	return float64(repl) / dy
}

// ReplacementInterarrivals simulates a fixed-size fleet and returns the
// time gaps between successive replacement events anywhere in the fleet,
// for distribution fitting (the FAST'07 data shows these are far from
// exponential: CoV > 1 and autocorrelated).
func ReplacementInterarrivals(class DriveClass, n int, years int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	horizon := float64(years) * 8760
	var events []float64
	for i := 0; i < n; i++ {
		t := 0.0
		for {
			t += class.Lifetime.Sample(r)
			if t >= horizon {
				break
			}
			events = append(events, t)
		}
	}
	if len(events) < 2 {
		return nil
	}
	sort.Float64s(events)
	gaps := make([]float64, len(events)-1)
	for i := 1; i < len(events); i++ {
		gaps[i-1] = events[i] - events[i-1]
	}
	return gaps
}
