package stats

import "math/rand"

// NewRNG returns a deterministic math/rand source seeded with seed. Every
// randomized component in this repository (random placements, annealing
// acceptance, Valiant hop selection, k-means++ seeding) draws from an
// explicit *rand.Rand so experiments are reproducible run-to-run.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitRNG derives an independent child stream from a parent seed and a
// stream index. Children with different indices are decorrelated by mixing
// the index through a SplitMix64 step.
func SplitRNG(seed int64, stream int64) *rand.Rand {
	return NewRNG(int64(splitmix64(uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
