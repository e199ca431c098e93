// Package b completes the cross-package metricname fixtures started in
// sibling package a.
package b

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

func register(reg *obs.Registry, eng *sim.Engine) {
	reg.Counter("dup.metric.count") // want `metric "dup.metric.count" is already registered by package metricname/a`
	reg.Counter("pkg.read.count")
	reg.CounterFunc("pkg.mixed.kind", func() int64 { return 0 }) // want `metric "pkg.mixed.kind" registered as both Counter \(metricname/a\) and CounterFunc \(metricname/b\)`
	reg.TimeSeries("pkg.queue.depth")                            // want `metric "pkg.queue.depth" registered as both GaugeFunc \(metricname/a\) and TimeSeries \(metricname/b\)`
	eng.Series("pkg.ops.count", func() float64 { return 0 })     // want `metric "pkg.ops.count" registered as both Counter \(metricname/a\) and TimeSeries \(metricname/b\)`
}
