package stats

import "math/rand/v2"

// Stream is a math/rand Source64 over math/rand/v2's PCG. Stream (s, i)
// has a 128-bit state of its own, so sources seeded s and s+1, or
// streams i and i+1 of one seed, draw independent values; math/rand's
// NewSource(s) and NewSource(s+1) draw correlated values for about their
// first thousand draws. Reseeding is two stores, so one Stream can serve
// many draws in turn.
type Stream struct{ rand.PCG }

// Reset reseeds the stream to PCG stream (seed, i).
func (s *Stream) Reset(seed int64, i uint64) { s.PCG.Seed(uint64(seed), i) }

// Int63 implements math/rand's Source.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements math/rand's Source: it reseeds stream (seed, 0).
func (s *Stream) Seed(seed int64) { s.Reset(seed, 0) }
