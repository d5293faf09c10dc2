package force

import (
	"math/bits"
	"math/rand"
)

// rngLen and rngTap are the lags of math/rand's seeded source, an
// additive lagged Fibonacci generator: x[n] = x[n-rngLen] + x[n-rngTap]
// (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// source yields exactly the stream of rand.NewSource(seed), as a
// concrete type the annealer's hot loops draw from without an interface
// call.
//
// The standard library's source stores each output in its 607-word
// state and returns that word, so its first 607 outputs are its whole
// state and every later output is x[n-607] + x[n-273]. source keeps one
// block of 607 consecutive outputs: Seed fills the first block from the
// standard library's own seeding, and refill turns block b into block
// b+1 in place by the recurrence. No table of the standard library is
// copied, so a toolchain whose seeding changed would still agree; one
// whose recurrence changed fails TestSourceMatchesMathRand and the
// golden placement digests.
//
// source implements rand.Source64 with math/rand's Int63 (the output
// with its top bit cleared), so rand.New(&s) consumes the same stream
// as rand.New(rand.NewSource(seed)) does.
type source struct {
	vec [rngLen]uint64 // outputs 607b..607b+606 of the current block b
	k   uint           // index in vec of the next output
	// seeder is reseeded by every Seed call, so a reused source
	// allocates nothing.
	seeder rand.Source64
}

// Seed resets s to the start of rand.NewSource(seed)'s stream.
func (s *source) Seed(seed int64) {
	if s.seeder == nil {
		s.seeder = rand.NewSource(seed).(rand.Source64)
	} else {
		s.seeder.Seed(seed)
	}
	for i := range s.vec {
		s.vec[i] = s.seeder.Uint64()
	}
	s.k = 0
}

// refill advances vec by one block. Word i of the next block is word i
// of this one plus the output 273 earlier: for i < 273 that is word
// i+334 of this block, not yet overwritten, and from 273 on it is word
// i-273 of the next block, already written.
func (s *source) refill() {
	v := &s.vec
	for i := 0; i < rngTap; i++ {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.k = 0
}

// Uint64 returns the next output.
func (s *source) Uint64() uint64 {
	k := s.k
	if k >= rngLen {
		s.refill()
		k = 0
	}
	s.k = k + 1
	return s.vec[k]
}

// Int63 returns the next output with its top bit cleared, as
// math/rand's source does.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// intner draws from [0, n) exactly as rand.Intn(n) does for n < 1<<31:
// Int31n's rejection loop over Int31 (bits 62..32 of an output), with
// its bound computed once instead of per draw. For a power of two the
// bound is never exceeded and v%n equals Int31n's mask, so every n
// consumes the stream identically.
//
// The remainder v%n is taken by fastmod (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", Software: Practice and Experience
// 49(6), 2019). With m = floor((2^64-1)/n) + 1 = ceil(2^64/n), the low
// 64 bits of m*v hold the fractional part of v/n in 64-bit fixed point,
// and the high word of that times n is v%n. The rounding up in m adds
// less than v/2^64 to the fraction, too little to carry into the
// result: the paper proves the remainder exact for every 32-bit v and
// n, which covers v < 2^31 and n < 2^31 here. n = 1 wraps m to 0 and
// gives 0, as v%1 does.
type intner struct {
	m, n   uint64
	reject int32
}

// newIntner returns the drawer for n; for n <= 0 it is the zero intner,
// which has no valid draw. The annealer never draws from an empty range:
// it draws edges only when it has more than one, and vertices only when
// sweeping some.
func newIntner(n int) intner {
	if n <= 0 {
		return intner{}
	}
	return intner{^uint64(0)/uint64(n) + 1, uint64(n), int32((1<<31 - 1) - (1<<31)%uint32(n))}
}

// fill writes len(dst) draws of d from s into dst: the values, and the
// outputs consumed, of len(dst) successive rand.Intn(n) calls. The block
// and its cursor stay in locals, so a draw costs a load, two compares and
// two multiplies.
func (d intner) fill(s *source, dst []int32) {
	v := &s.vec
	k := s.k
	for i := range dst {
		var x int32
		for {
			if k >= rngLen {
				s.refill()
				k = 0
			}
			x = int32(v[k] >> 32 & (1<<31 - 1))
			k++
			if x <= d.reject {
				break
			}
		}
		hi, _ := bits.Mul64(d.m*uint64(x), d.n)
		dst[i] = int32(hi)
	}
	s.k = k
}
