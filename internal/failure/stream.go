package failure

import "math/rand/v2"

// This file holds the per-drive random stream behind DrawOSSFaults and
// DrawLSE. Drive i of a draw seeded s reads PCG stream (s, i): its own
// 128-bit state, so adding a drive never perturbs the others, and
// neighbouring drives draw independent values. Reseeding is two stores,
// so one stream serves every drive of a draw in turn.

// burstStream is the stream number of the burst draw. Drive indices are
// non-negative ints, so no drive reads it.
const burstStream = 1<<64 - 1

// stream is a math/rand Source64 over math/rand/v2's PCG.
type stream struct{ rand.PCG }

// reset reseeds the stream to PCG stream (seed, i).
func (s *stream) reset(seed int64, i uint64) { s.PCG.Seed(uint64(seed), i) }

// Int63 implements math/rand's Source.
func (s *stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements math/rand's Source: it reseeds stream (seed, 0).
func (s *stream) Seed(seed int64) { s.reset(seed, 0) }
