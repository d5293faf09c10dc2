package stitch

import (
	"math/rand"
	"testing"

	"magicstate/internal/bravyi"
)

// BenchmarkApplyHopRouting isolates the hop router — dead-pool
// collection, midpoint picks and the parallel annealer — from the rest
// of a stitched build. Each iteration rebuilds the pre-hop factory with
// the timer stopped (a NoHop build leaves the factory and placement in
// exactly the state applyHopRouting sees: the build rng has drawn
// nothing by step 6) and times only the routing pass.
func BenchmarkApplyHopRouting(b *testing.B) {
	p := bravyi.Params{K: 6, Levels: 2, Barriers: true}
	opt := Options{Seed: 1, Reuse: true, Hops: AnnealedMidpointHop}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pre, err := Build(p, Options{Seed: 1, Reuse: true, Hops: NoHop})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		b.StartTimer()
		if _, err := applyHopRouting(pre.Factory, pre.Placement, opt, rng); err != nil {
			b.Fatal(err)
		}
	}
}
