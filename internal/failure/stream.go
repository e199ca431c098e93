package failure

// This file holds the per-drive random stream behind DrawOSSFaults and
// DrawLSE. Both give every drive its own math/rand stream seeded with
// seed+i, so that adding a drive never perturbs the others. Seeding a
// math/rand source costs 1,841 LCG steps into a fresh 4.9 KB register,
// yet a drive's whole schedule usually draws only one or two values:
// at 10^4 drives the seeding, not the drawing, is the cost. stream
// reproduces math/rand's sequence bit for bit (TestStreamMatchesMathRand
// pins it) while paying only for the register words actually read.

const (
	rngLen   = 607 // math/rand's register length
	rngTap   = 273 // and its feedback tap
	int32max = 1<<31 - 1

	// seedSteps is the number of LCG steps math/rand's Seed takes: 20
	// discarded, then three per register word.
	seedSteps = 20 + 3*rngLen
)

// lcgPow[n] is 48271^n mod (2^31-1): the n-th value of math/rand's
// seeding LCG started from 1. Seeded with x0, the LCG's n-th value is
// x0*lcgPow[n] mod (2^31-1), so any register word can be computed
// directly instead of stepping through all the words before it.
var lcgPow = func() (p [seedSteps + 1]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * 48271 % int32max
	}
	return p
}()

// stream is a rand.Source64 producing exactly the sequence of
// rand.NewSource(seed): the same additive lagged-Fibonacci generator
// over the same register. A register word is computed from the seed
// only when the generator first reads it, so reset is O(1) and a stream
// that draws k values costs O(k). The zero value must be reset before
// use; one stream serves any number of seeds in turn.
type stream struct {
	x0        uint64 // the seed reduced to the LCG's range [1, 2^31-2]
	tap, feed int
	have      [(rngLen + 63) / 64]uint64 // bit i set once vec[i] holds its value
	vec       [rngLen]int64
}

// reset reseeds the stream as rand.NewSource(seed) would seed a fresh
// source.
func (s *stream) reset(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, computing its seeded value on first
// use: math/rand packs LCG values 21+3i, 22+3i and 23+3i into it and
// XORs in the cooked constant.
func (s *stream) word(i int) int64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		s.have[i>>6] |= 1 << (i & 63)
		n := 21 + 3*i
		u := int64(s.x0*lcgPow[n]%int32max) << 40
		u ^= int64(s.x0*lcgPow[n+1]%int32max) << 20
		u ^= int64(s.x0 * lcgPow[n+2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64 with math/rand's feedback step.
func (s *stream) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed implements rand.Source.
func (s *stream) Seed(seed int64) { s.reset(seed) }
