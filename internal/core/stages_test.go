package core

import (
	"bytes"
	"context"
	"testing"
)

func TestStagedEqualsMonolithic(t *testing.T) {
	// RunContext is documented as the exact serial composition of the
	// exported stages; pin that the two paths agree field for field.
	for _, cfg := range []Config{
		{K: 2, Levels: 1, Strategy: StrategyLinear},
		{K: 2, Levels: 2, Strategy: StrategyRandom, Seed: 5},
		{K: 2, Levels: 2, Strategy: StrategyStitch, Seed: 3},
	} {
		mono, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%+v: RunContext: %v", cfg, err)
		}
		ctx := context.Background()
		b, err := BuildStage(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlaceStage(ctx, cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := SimStage(ctx, cfg, b, p)
		if err != nil {
			t.Fatal(err)
		}
		staged := Assemble(cfg, b, p, sim)
		a, z := *mono, *staged
		a.Factory, a.Placement, a.Sim = nil, nil, nil
		z.Factory, z.Placement, z.Sim = nil, nil, nil
		if a != z {
			t.Fatalf("staged composition differs from RunContext for %+v:\n mono:   %+v\n staged: %+v", cfg, a, z)
		}
	}
}

// TestBuildArtifactCodecRoundTrip pins the codec's canonical form:
// encode→decode→encode is byte-identical, and a decoded artifact drives
// the downstream stages to the same simulation outcome the original
// did. Both factory kinds are covered (bravyi, and stitch with its
// fused placement).
func TestBuildArtifactCodecRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{K: 3, Levels: 1, Strategy: StrategyLinear},
		{K: 2, Levels: 2, Reuse: true, Strategy: StrategyLinear},
		{K: 2, Levels: 2, Strategy: StrategyStitch, Seed: 7},
	} {
		b, err := BuildStage(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc1 := EncodeBuildArtifact(b)
		got, err := DecodeBuildArtifact(enc1)
		if err != nil {
			t.Fatalf("%+v: decode: %v", cfg, err)
		}
		if enc2 := EncodeBuildArtifact(got); !bytes.Equal(enc1, enc2) {
			t.Fatalf("%+v: re-encoding a decoded build artifact changed its bytes", cfg)
		}
		gp, bp := got.Factory.Params, b.Factory.Params
		if gp.K != bp.K || gp.Levels != bp.Levels || gp.Reuse != bp.Reuse || gp.Barriers != bp.Barriers {
			t.Fatalf("params drifted: %+v vs %+v", gp, bp)
		}
		if gp.Assigner != nil {
			t.Fatal("Assigner must not survive a decode (it is deliberately dropped)")
		}
		if (got.Placement != nil) != (cfg.Strategy == StrategyStitch) {
			t.Fatalf("%+v: placement presence wrong after decode", cfg)
		}

		// The decoded factory must carry everything the rest of the
		// pipeline reads: place and simulate from it and compare.
		p1, err := PlaceStage(context.Background(), cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := PlaceStage(context.Background(), cfg, got)
		if err != nil {
			t.Fatalf("%+v: placing from decoded artifact: %v", cfg, err)
		}
		s1, err := SimStage(context.Background(), cfg, b, p1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := SimStage(context.Background(), cfg, got, p2)
		if err != nil {
			t.Fatalf("%+v: simulating from decoded artifact: %v", cfg, err)
		}
		if s1.Latency != s2.Latency || s1.Area != s2.Area || s1.Stalls != s2.Stalls {
			t.Fatalf("%+v: decoded artifact simulates differently: %d/%d/%d vs %d/%d/%d",
				cfg, s2.Latency, s2.Area, s2.Stalls, s1.Latency, s1.Area, s1.Stalls)
		}
	}
}

func TestPlaceAndSimArtifactCodecRoundTrip(t *testing.T) {
	cfg := Config{K: 2, Levels: 2, Strategy: StrategyRandom, Seed: 11}
	ctx := context.Background()
	b, err := BuildStage(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceStage(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	encP := EncodePlaceArtifact(p)
	gotP, err := DecodePlaceArtifact(encP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encP, EncodePlaceArtifact(gotP)) {
		t.Fatal("re-encoding a decoded place artifact changed its bytes")
	}
	if gotP.Sim != nil {
		t.Fatal("decoded place artifact must not carry a Sim byproduct")
	}
	if gotP.Placement.Pos[0] != p.Placement.Pos[0] {
		t.Fatal("decoded placement moved a qubit")
	}

	sim, err := SimStage(ctx, cfg, b, p)
	if err != nil {
		t.Fatal(err)
	}
	encS := EncodeSimArtifact(sim)
	gotS, err := DecodeSimArtifact(encS)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encS, EncodeSimArtifact(gotS)) {
		t.Fatal("re-encoding a decoded sim artifact changed its bytes")
	}
	if gotS.Latency != sim.Latency || gotS.Area != sim.Area || gotS.Stalls != sim.Stalls {
		t.Fatal("decoded sim artifact drifted on scalar fields")
	}
	if len(gotS.Start) != len(sim.Start) || len(gotS.End) != len(sim.End) {
		t.Fatal("decoded sim artifact dropped the timing arrays")
	}

	// Assembly from decoded artifacts must match assembly from fresh
	// ones — the property the durable stage tier depends on.
	fresh := Assemble(cfg, b, p, sim)
	replayed := Assemble(cfg, b, gotP, gotS)
	a, z := *fresh, *replayed
	a.Factory, a.Placement, a.Sim = nil, nil, nil
	z.Factory, z.Placement, z.Sim = nil, nil, nil
	if a != z {
		t.Fatalf("assembly from decoded artifacts differs:\n fresh:    %+v\n replayed: %+v", a, z)
	}
}

// TestStageCodecRejectsCorruption exhausts every truncation point of a
// valid record of each kind, plus trailing bytes and a flipped version
// byte: all must fail the decode cleanly — never panic, never succeed.
func TestStageCodecRejectsCorruption(t *testing.T) {
	cfg := Config{K: 2, Levels: 2, Strategy: StrategyStitch, Seed: 1}
	ctx := context.Background()
	b, err := BuildStage(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceStage(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimStage(ctx, cfg, b, p)
	if err != nil {
		t.Fatal(err)
	}
	records := map[Stage][]byte{
		StageBuild:  EncodeBuildArtifact(b),
		StagePlace:  EncodePlaceArtifact(p),
		StageSim:    EncodeSimArtifact(sim),
		StageReport: EncodeReportArtifact(Assemble(cfg, b, p, sim)),
	}
	for st, rec := range records {
		if err := ValidateStageArtifact(st, rec); err != nil {
			t.Fatalf("%s: pristine record rejected: %v", st, err)
		}
		for cut := 0; cut < len(rec); cut++ {
			if err := ValidateStageArtifact(st, rec[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes was admitted", st, cut, len(rec))
			}
		}
		trailing := append(append([]byte(nil), rec...), 0)
		if err := ValidateStageArtifact(st, trailing); err == nil {
			t.Fatalf("%s: trailing byte was admitted", st)
		}
		wrongVersion := append([]byte(nil), rec...)
		wrongVersion[len(stageMagicOf(st))] ^= 0xFF
		if err := ValidateStageArtifact(st, wrongVersion); err == nil {
			t.Fatalf("%s: flipped version byte was admitted", st)
		}
		// A record must never decode as another stage's kind.
		for other := range records {
			if other == st {
				continue
			}
			if err := ValidateStageArtifact(other, rec); err == nil {
				t.Fatalf("%s record decoded as %s", st, other)
			}
		}
	}
	if err := ValidateStageArtifact(Stage(99), records[StageBuild]); err == nil {
		t.Fatal("unknown stage id was admitted")
	}
}

// stageMagicOf maps a stage to its codec magic string, for tests that
// need to corrupt the bytes right after it.
func stageMagicOf(st Stage) string {
	switch st {
	case StageBuild:
		return buildMagic
	case StagePlace:
		return placeMagic
	case StageReport:
		return reportMagic
	default:
		return simMagic
	}
}

// TestAssemblePermLatencyFailureObservable is the regression test for
// the silently-swallowed stitch.PermutationLatency error: a mismatched
// factory/simulation pair (here: a config claiming two levels assembled
// against a single-round factory) must increment the process-wide
// failure counter instead of silently reporting PermLatency = 0 as if
// the window were empty.
func TestAssemblePermLatencyFailureObservable(t *testing.T) {
	cfg := Config{K: 2, Levels: 1, Strategy: StrategyLinear}
	ctx := context.Background()
	b, err := BuildStage(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Factory.Rounds) >= 2 {
		t.Fatalf("test premise broken: single-level factory has %d rounds", len(b.Factory.Rounds))
	}
	p, err := PlaceStage(ctx, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimStage(ctx, cfg, b, p)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy single-level assembly: no window requested, no failure.
	before := PermLatencyFailures()
	Assemble(cfg, b, p, sim)
	if got := PermLatencyFailures(); got != before {
		t.Fatalf("healthy assembly incremented the failure counter (%d -> %d)", before, got)
	}

	// The mismatch: Levels=2 requests the round-2 window, which the
	// one-round factory cannot answer.
	bad := cfg
	bad.Levels = 2
	rep := Assemble(bad, b, p, sim)
	if got := PermLatencyFailures(); got != before+1 {
		t.Fatalf("failed permutation-window computation not counted: %d, want %d", got, before+1)
	}
	if rep.PermLatency != 0 {
		t.Fatalf("failed window reported %d, want 0", rep.PermLatency)
	}

	// And a healthy multi-level assembly still produces the window
	// without touching the counter.
	cfg2 := Config{K: 2, Levels: 2, Strategy: StrategyLinear}
	b2, err := BuildStage(ctx, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlaceStage(ctx, cfg2, b2)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := SimStage(ctx, cfg2, b2, p2)
	if err != nil {
		t.Fatal(err)
	}
	mid := PermLatencyFailures()
	Assemble(cfg2, b2, p2, sim2)
	if got := PermLatencyFailures(); got != mid {
		t.Fatalf("healthy two-level assembly incremented the failure counter (%d -> %d)", mid, got)
	}
}
