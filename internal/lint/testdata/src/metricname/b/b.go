// Package b completes the cross-package metricname fixtures started in
// sibling package a.
package b

import "repro/internal/obs"

func register(reg *obs.Registry) {
	reg.Counter("dup.metric.count") // want `metric "dup.metric.count" is already registered by package metricname/a`
	reg.Counter("pkg.read.count")
	reg.GaugeFunc("pkg.mixed.kind", func() float64 { return 0 }) // want `metric "pkg.mixed.kind" registered as both Gauge \(metricname/a\) and GaugeFunc \(metricname/b\)`
	reg.TimeSeries("pkg.queue.depth")                            // want `metric "pkg.queue.depth" registered as both Gauge \(metricname/a\) and TimeSeries \(metricname/b\)`
}
