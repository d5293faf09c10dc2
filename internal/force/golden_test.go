package force

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
)

// placementDigest hashes a placement's canvas size and every qubit's
// tile, in qubit order, with 64-bit FNV-1a.
func placementDigest(p *layout.Placement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	put(p.W)
	put(p.H)
	for _, pt := range p.Pos {
		put(pt.X)
		put(pt.Y)
	}
	return h.Sum64()
}

// TestAnnealGoldenDigests pins force.Anneal's placements to digests
// recorded before the annealer's kernels were rewritten on integer
// doubled-midpoint geometry. It checks bit-identity of whole runs
// independently of localCostNaive, which shares layout.SegmentsConflict
// with the code under test. A digest changes only when some cost, force
// or rng draw does.
func TestAnnealGoldenDigests(t *testing.T) {
	cases := []struct {
		k, levels int
		seed      int64
		want      uint64
	}{
		{2, 1, 1, 0x78d9c7d885bd44a5},
		{2, 1, 2, 0x8826b76577fa0644},
		{8, 1, 1, 0xf92e26ea9b81d5e2},
		{8, 1, 2, 0x877b1e4c30eb1403},
		{2, 2, 1, 0x23306d952c25ccad},
		{2, 2, 2, 0x2d6ce42359489c4c},
	}
	for _, c := range cases {
		f, err := bravyi.Build(bravyi.Params{K: c.k, Levels: c.levels, Barriers: true})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromCircuit(f.Circuit)
		p := Anneal(g, f.Circuit, layout.Linear(f), Options{Seed: c.seed})
		if got := placementDigest(p); got != c.want {
			t.Errorf("L%d K=%d seed %d: placement digest %#016x, want %#016x", c.levels, c.k, c.seed, got, c.want)
		}
	}
}
