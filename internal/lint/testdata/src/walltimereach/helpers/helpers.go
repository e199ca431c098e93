// Fixture for the walltime-reach analyzer, helper side: direct
// wall-clock readers (flagged where they read the clock) and wrappers
// that smuggle them to callers (flagged with the call chain). Direct
// uses on their own are covered by the walltime fixture.
package helpers

import "time"

// WallNow reads the clock directly: flagged at the call, and the seed
// of the taint that Wrap inherits.
func WallNow() int64 { return time.Now().UnixNano() } // want `wall-clock call time\.Now`

func Wrap() int64 { // want `transitively reaches the wall clock via helpers\.Wrap -> helpers\.WallNow`
	return WallNow()
}

// ValueClock reads the clock through a function value: flagged at the
// value, which seeds the taint exactly as a call does.
func ValueClock() int64 {
	f := time.Now // want `wall-clock function value time\.Now`
	return f().UnixNano()
}

func WrapValue() int64 { // want `transitively reaches the wall clock via helpers\.WrapValue -> helpers\.ValueClock`
	return ValueClock()
}
