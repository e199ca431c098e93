package walltime

import "time"

// Test files are in scope: a test that reads the clock is flagged like
// any other code.
func sinceEpoch() time.Duration { return time.Since(now()) } // want `wall-clock call time\.Since`
