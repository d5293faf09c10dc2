package stitch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"magicstate/internal/circuit"
	"magicstate/internal/layout"
)

// sortAssigner is the reference for reuseAssigner: copy the pool, sort
// it known-first (block-major, then row-major by tile), unknown ids
// after in id order, and take the head.
func sortAssigner(tileOf []layout.Point, bw, bh, bcols, need int, pool []circuit.Qubit) []circuit.Qubit {
	byTile := append([]circuit.Qubit(nil), pool...)
	known := func(q circuit.Qubit) bool { return int(q) < len(tileOf) }
	sort.Slice(byTile, func(i, j int) bool {
		qi, qj := byTile[i], byTile[j]
		ki, kj := known(qi), known(qj)
		if ki != kj {
			return ki
		}
		if !ki {
			return qi < qj
		}
		a, b := tileOf[qi], tileOf[qj]
		ba := (a.Y/bh)*bcols + a.X/bw
		bb := (b.Y/bh)*bcols + b.X/bw
		if ba != bb {
			return ba < bb
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	if need > len(byTile) {
		need = len(byTile)
	}
	return byTile[:need]
}

// TestReuseAssignerMatchesSort compares the bounded-insertion assigner
// with the sort-based reference on random block layouts, pools (known
// and unknown ids, ascending or shuffled) and register sizes, through
// a sequence of calls on one assigner as Build makes them.
func TestReuseAssignerMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		bw, bh := 1+rng.Intn(6), 1+rng.Intn(6)
		qpm := 1 + rng.Intn(bw*bh)
		n1 := 1 + rng.Intn(12)
		bcols := 1
		for bcols*bcols < n1 {
			bcols++
		}
		cells := rng.Perm(bw * bh)[:qpm]
		tileOf := make([]layout.Point, n1*qpm)
		for im := 0; im < n1; im++ {
			ox, oy := (im%bcols)*bw, (im/bcols)*bh
			for reg, c := range cells {
				tileOf[im*qpm+reg] = layout.Point{X: ox + c%bw, Y: oy + c/bw}
			}
		}
		assign := reuseAssigner(tileOf, bw, bh, bcols)
		ids := len(tileOf) + rng.Intn(2*qpm+1)
		for call := 0; call < 8; call++ {
			var pool []circuit.Qubit
			for q := 0; q < ids; q++ {
				if rng.Intn(3) > 0 {
					pool = append(pool, circuit.Qubit(q))
				}
			}
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			}
			need := rng.Intn(2*qpm + 2)
			before := slices.Clone(pool)
			want := sortAssigner(tileOf, bw, bh, bcols, need, pool)
			got := assign(2, call, need, pool)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d call %d (bw=%d bh=%d n1=%d need=%d): got %v, want %v", trial, call, bw, bh, n1, need, got, want)
			}
			if !slices.Equal(pool, before) {
				t.Fatalf("trial %d call %d: the assigner modified the pool", trial, call)
			}
		}
	}
}
