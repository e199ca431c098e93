//lint:allowfile walltime-reach -- the one sanctioned wall-clock root: harness stopwatch for cmd/ benchmark timing
package obs

import "time"

// Stopwatch measures elapsed wall-clock time for the benchmark
// harnesses (pdsibench, pdsirepro's index/mdindex timing loops) that
// report how fast the real machine runs, as opposed to the
// simulators, which must never see a wall clock.
//
// This file is the one sanctioned wall-time call site in the module:
// the walltime-reach analyzer (cmd/pdsilint) forbids time.Now/time.Since
// everywhere else, and treats the functions declared in this file — and
// only these — as sanctioned roots where wall-clock taint stops,
// enforcing in exchange that they are called only from cmd/ harnesses
// and tests. Every harness measurement funnels through here and the
// escape-hatch surface stays a single file. Do not add another
// allowfile for this analyzer without updating DESIGN.md's escape-hatch
// policy.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since StartStopwatch.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
