package force

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the zero seed (which math/rand replaces), negative
// seeds, and 2^31-1 and 2^31, on either side of the modulus the standard
// library reduces seeds by.
var sourceSeeds = []int64{0, 1, -7, 1<<31 - 1, 1 << 31, 1 << 40}

// TestSourceMatchesMathRand compares a million Uint64 and a million
// Int63 outputs of the clone with rand.NewSource's, seed by seed. One
// source serves every seed, reseeded mid-block, as a pooled arena's is.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	var s source
	for _, seed := range sourceSeeds {
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 output %d is %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			if g, w := s.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d: Int63 output %d is %d, math/rand gives %d", seed, draws+i, g, w)
			}
		}
	}
}

// TestSourceRandMethodsMatch runs math/rand's derived draws over the
// clone and over rand.NewSource, which must agree value for value.
func TestSourceRandMethodsMatch(t *testing.T) {
	for _, seed := range sourceSeeds {
		var s source
		s.Seed(seed)
		got, want := rand.New(&s), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			n := 1 + i*i*7919%(1<<30)
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand gives %d", seed, n, g, w)
			}
			if g, w := got.Int31n(int32(n)), want.Int31n(int32(n)); g != w {
				t.Fatalf("seed %d: Int31n(%d) = %d, math/rand gives %d", seed, n, g, w)
			}
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: Float64 = %v, math/rand gives %v", seed, g, w)
			}
		}
		for _, n := range []int{0, 1, 2, 17, 1000} {
			gp, wp := got.Perm(n), want.Perm(n)
			for i := range wp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d: Perm(%d)[%d] = %d, math/rand gives %d", seed, n, i, gp[i], wp[i])
				}
			}
			gs, ws := make([]int, n), make([]int, n)
			for i := range gs {
				gs[i], ws[i] = i, i
			}
			got.Shuffle(n, func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			want.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			for i := range ws {
				if gs[i] != ws[i] {
					t.Fatalf("seed %d: Shuffle(%d) puts %d at %d, math/rand puts %d", seed, n, gs[i], i, ws[i])
				}
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("seed %d: the derived draws consumed the streams differently", seed)
		}
	}
}

// FuzzSourceMatchesMathRand draws count outputs from the clone and from
// rand.NewSource(seed) by one of four routes picked by kind (Uint64,
// Int63, a batched intner fill, or rand.Rand's Intn over the clone) and
// asserts every value and the final stream position agree.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(700), uint8(0))
	f.Add(int64(-7), uint16(2000), uint8(1))
	f.Add(int64(0), uint16(1300), uint8(2))
	f.Add(int64(1<<31), uint16(650), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, count uint16, kind uint8) {
		var s source
		s.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		n := 1 + int(uint64(seed)%(1<<31-1))
		switch kind % 4 {
		case 0:
			for i := 0; i < int(count); i++ {
				if g, w := s.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("Uint64 output %d is %#x, math/rand gives %#x", i, g, w)
				}
			}
		case 1:
			for i := 0; i < int(count); i++ {
				if g, w := s.Int63(), ref.Int63(); g != w {
					t.Fatalf("Int63 output %d is %d, math/rand gives %d", i, g, w)
				}
			}
		case 2:
			got := make([]int32, count)
			newIntner(n).fill(&s, got)
			for i, g := range got {
				if w := ref.Intn(n); int(g) != w {
					t.Fatalf("fill draw %d of [0, %d) is %d, Intn gives %d", i, n, g, w)
				}
			}
		case 3:
			r := rand.New(&s)
			for i := 0; i < int(count); i++ {
				if g, w := r.Intn(n), ref.Intn(n); g != w {
					t.Fatalf("Intn(%d) draw %d is %d, math/rand gives %d", n, i, g, w)
				}
			}
		}
		if g, w := s.Int63(), ref.Int63(); g != w {
			t.Fatalf("after %d draws the clone stands at %d, math/rand at %d", count, g, w)
		}
	})
}
