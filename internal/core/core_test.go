package core

import (
	"testing"

	"magicstate/internal/mesh"
)

func TestRunAllStrategiesSingleLevel(t *testing.T) {
	for _, s := range Strategies(1) {
		rep, err := Run(Config{K: 4, Levels: 1, Strategy: s, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Latency < rep.CriticalLatency {
			t.Errorf("%v: latency %d below critical %d", s, rep.Latency, rep.CriticalLatency)
		}
		if rep.Area != 33 {
			t.Errorf("%v: area %d, want 33", s, rep.Area)
		}
		if rep.Volume != float64(rep.Latency*rep.Area) {
			t.Errorf("%v: volume inconsistent", s)
		}
	}
}

func TestRunAllStrategiesTwoLevel(t *testing.T) {
	for _, s := range Strategies(2) {
		rep, err := Run(Config{K: 2, Levels: 2, Strategy: s, Seed: 2, Reuse: s != StrategyForceDirected})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Latency <= 0 || rep.Area <= 0 {
			t.Errorf("%v: degenerate report %+v", s, rep)
		}
		if rep.PermLatency <= 0 {
			t.Errorf("%v: missing permutation latency", s)
		}
	}
}

func TestStrategyOrderingTwoLevel(t *testing.T) {
	// The paper's headline ordering at scale: HS < GP < Line(NR).
	vol := func(s Strategy, reuse bool) float64 {
		rep, err := Run(Config{K: 4, Levels: 2, Strategy: s, Seed: 3, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Volume
	}
	hs := vol(StrategyStitch, true)
	gp := vol(StrategyGraphPartition, true)
	lineNR := vol(StrategyLinear, false)
	if !(hs < lineNR) {
		t.Errorf("HS (%.3g) should beat Line(NR) (%.3g)", hs, lineNR)
	}
	if !(gp < lineNR) {
		t.Errorf("GP (%.3g) should beat Line(NR) (%.3g)", gp, lineNR)
	}
}

// TestFDNeverWorseThanLine pins the force-directed mapper's
// keep-the-better-candidate rule: the linear mapping is one of its two
// candidates, so FD may tie Line but never lose to it — including on
// defective meshes, where both candidates are relocated off dead tiles
// before they are scored.
func TestFDNeverWorseThanLine(t *testing.T) {
	for _, base := range []Config{
		{K: 2, Levels: 1, Seed: 4},
		{K: 2, Levels: 2, Seed: 4},
		{K: 2, Levels: 2, Reuse: true, Seed: 4},
		{K: 4, Levels: 1, Style: mesh.StyleTeleportation},
		{K: 4, Levels: 2, Reuse: true, Seed: 7, Defects: "3,0;8,0"},
		{K: 2, Levels: 1, MeshMode: mesh.RouteBox},
	} {
		lineCfg, fdCfg := base, base
		lineCfg.Strategy, fdCfg.Strategy = StrategyLinear, StrategyForceDirected
		line, err := Run(lineCfg)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := Run(fdCfg)
		if err != nil {
			t.Fatal(err)
		}
		if fd.Volume > line.Volume {
			t.Errorf("%+v: FD volume %.3g exceeds Line %.3g (FD must keep the better candidate)",
				base, fd.Volume, line.Volume)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{K: 0, Levels: 1, Strategy: StrategyLinear}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Run(Config{K: 2, Levels: 1, Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		StrategyRandom: "Random", StrategyLinear: "Line", StrategyForceDirected: "FD",
		StrategyGraphPartition: "GP", StrategyStitch: "HS",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d: %q != %q", s, s.String(), n)
		}
	}
}

func TestStrategiesList(t *testing.T) {
	if len(Strategies(1)) != 4 {
		t.Error("level 1 should expose 4 strategies (no HS)")
	}
	if len(Strategies(2)) != 5 {
		t.Error("level 2 should expose 5 strategies")
	}
}

func TestBarrierAblation(t *testing.T) {
	with, err := Run(Config{K: 2, Levels: 2, Strategy: StrategyLinear, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(Config{K: 2, Levels: 2, Strategy: StrategyLinear, Seed: 5, NoBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without barriers gates can drift across rounds; latency may only
	// shrink or stay similar, never blow up.
	if float64(without.Latency) > 1.2*float64(with.Latency) {
		t.Errorf("removing barriers should not inflate latency: %d vs %d",
			without.Latency, with.Latency)
	}
}
