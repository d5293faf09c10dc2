package main

import "testing"

// TestSpreadReachesEveryFamily: the default -verify sample of the
// universe must include a two-level hierarchical-stitching point and a
// random-workload point, not only the cheap capacity-4 factories the
// universe lists first.
func TestSpreadReachesEveryFamily(t *testing.T) {
	pts := universe()
	var hs, level2, random bool
	for _, pt := range spread(pts, 8) {
		hs = hs || pt.body["strategy"] == "hs"
		level2 = level2 || pt.spec.Levels == 2
		random = random || pt.body["workload"] == "random"
	}
	if !hs || !level2 || !random {
		t.Errorf("spread(universe(), 8) misses a family: hs %t, level 2 %t, random workload %t", hs, level2, random)
	}
	if got := len(spread(pts, len(pts)+5)); got != len(pts) {
		t.Errorf("spread past the universe returned %d points, want all %d", got, len(pts))
	}
	if got := len(spread(pts, 0)); got != 0 {
		t.Errorf("spread(pts, 0) returned %d points", got)
	}
}
