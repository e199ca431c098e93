package walltime

import . "time"

// A dot import reaches the same functions without a qualifier.
func dotNow() int64 { return Now().UnixNano() } // want `wall-clock call time\.Now`
