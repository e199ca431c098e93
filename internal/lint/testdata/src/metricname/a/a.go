// Package a holds metricname fixtures: grammar violations and the
// first halves of the cross-package duplicate and near-miss pairs
// completed by sibling package b.
package a

import "repro/internal/obs"

func register(reg *obs.Registry, tr *obs.Tracer) {
	reg.Counter("pkg.ops.count")
	reg.Counter("BadName")    // want `metric name "BadName" does not match the pkg.noun\[.verb\] grammar`
	reg.Counter("single")     // want `metric name "single" does not match the pkg.noun\[.verb\] grammar`
	reg.Counter("pkg..twice") // want `metric name "pkg..twice" does not match the pkg.noun\[.verb\] grammar`
	reg.GaugeFunc("pkg.queue.depth", func() float64 { return 0 })
	reg.Histogram("pkg.wait.seconds", nil)
	reg.TimeSeries("pkg.util.series")
	reg.TimeSeries("series") // want `metric name "series" does not match the pkg.noun\[.verb\] grammar`
	reg.OpTimerSet("pkg.write")
	reg.OpTimerSet("op timer") // want `metric name "op timer" does not match the pkg.noun\[.verb\] grammar`

	reg.Counter("dup.metric.count")
	reg.Counter("pkg.reads.count") // want `metric name "pkg.reads.count" is one edit away from counter "pkg.read.count"`

	reg.Counter("pkg.mixed.kind")

	tr.Span("cat", "write", 0, 0, 1, nil)
	tr.Span("Bad Cat", "write", 0, 0, 1, nil) // want `trace category "Bad Cat" does not match`
	tr.Instant("cat", " padded", 0, 0)        // want `trace event name " padded" has leading or trailing whitespace`
}
