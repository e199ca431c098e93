// Package walltime holds the direct-use fixtures for the walltime-reach
// analyzer: wall-clock functions are flagged where they appear — called
// (through a renamed import too) or taken as a value, in function
// bodies and package-level initializers. Explicit time construction is
// not flagged, and the //lint:allow escape hatch suppresses both
// trailing and line-above.
package walltime

import (
	"time"
	wall "time"
)

var started = time.Now() // want `wall-clock call time\.Now`

var clock = time.Now // want `wall-clock function value time\.Now`

func bad(d time.Duration) {
	_ = time.Now()        // want `wall-clock call time\.Now`
	_ = time.Since(now()) // want `wall-clock call time\.Since`
	_ = time.Until(now()) // want `wall-clock call time\.Until`
	time.Sleep(d)         // want `wall-clock call time\.Sleep`
	_ = time.After(d)     // want `wall-clock call time\.After`
	_ = time.NewTimer(d)  // want `wall-clock call time\.NewTimer`
	_ = time.NewTicker(d) // want `wall-clock call time\.NewTicker`
	_ = wall.Now()        // want `wall-clock call time\.Now`
}

func localValue() int64 {
	f := time.Now // want `wall-clock function value time\.Now`
	return f().UnixNano()
}

func good() {
	_ = time.Unix(0, 0)
	_ = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	_ = time.Duration(42) * time.Second
	_ = now().Add(time.Second)
	_ = now().After(now()) // the Time.After method, not the time.After timer
}

func allowed() {
	_ = time.Now() //lint:allow walltime-reach -- fixture: trailing directive
	//lint:allow walltime-reach -- fixture: directive on the line above
	_ = time.Now()
}

// now stands in for a sim-time source so the good cases type-check.
func now() time.Time { return time.Unix(0, 0) }
