//lint:allowfile walltime-reach -- fixture stand-in for obs.Stopwatch, the one sanctioned wall-clock root
package helpers

import "time"

// StopwatchStart is the sanctioned root: taint propagation stops here,
// but callers outside cmd/ harnesses and tests are flagged at the call
// site instead.
func StopwatchStart() int64 { return time.Now().UnixNano() }
