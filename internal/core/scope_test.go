package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"magicstate/internal/force"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

// oracleQASM is a small frontend program for the scope oracle: a GHZ
// ladder with T gates, so placement and routing have real work to do.
const oracleQASM = `OPENQASM 2.0;
qreg q[6];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
t q[2];
cx q[2],q[3];
cx q[3],q[4];
t q[4];
cx q[4],q[5];
cx q[0],q[5];
`

// randomScopeConfig draws a config that varies every Config field: all
// strategies, the random and qasm frontends, row-0 defect maps (dead
// tiles in row 1 can deadlock the linear mapping, which would test the
// router, not the scopes), every routing mode and style, distances,
// force-directed options and RecordPaths. Factories stay small so the
// oracle can afford two runs of every stage per config.
func randomScopeConfig(rng *rand.Rand) Config {
	cfg := Config{
		K:           2 + rng.Intn(2),
		Levels:      1 + rng.Intn(2),
		Reuse:       rng.Intn(2) == 0,
		NoBarriers:  rng.Intn(3) == 0,
		Strategy:    Strategy(rng.Intn(5)),
		Seed:        rng.Int63n(100),
		MeshMode:    mesh.RouteMode(rng.Intn(3)),
		Style:       mesh.InteractionStyle(rng.Intn(3)),
		Distance:    []int{0, 3, 5, 9}[rng.Intn(4)],
		RecordPaths: rng.Intn(2) == 0,
		FD: force.Options{
			Iterations:       5 + rng.Intn(10),
			Seed:             rng.Int63n(100),
			MarginRows:       rng.Intn(3),
			DisableDipole:    rng.Intn(2) == 0,
			DisableCommunity: rng.Intn(2) == 0,
			RestartWorkers:   rng.Intn(4),
		},
	}
	if cfg.Strategy == StrategyStitch {
		// Stitching needs the factory's multi-level round structure.
		cfg.K, cfg.Levels = 2, 2
	} else {
		switch rng.Intn(3) {
		case 1:
			cfg.Workload, cfg.WorkloadSource = "random", "q=12;layers=8;cx=0.5;t=0.25"
		case 2:
			cfg.Workload, cfg.WorkloadSource = "qasm", oracleQASM
		}
	}
	if rng.Intn(3) == 0 {
		if dm := layout.SampleDefects(12, 1, 0.15, rng); dm != nil {
			cfg.Defects = dm.String()
		}
	}
	return cfg
}

// sameOutcome reports whether two stage runs agree: both failed with the
// same message, or both succeeded with byte-identical encodings.
func sameOutcome(t *testing.T, st Stage, cfg Config, full, scoped []byte, errFull, errScoped error) bool {
	t.Helper()
	if errFull != nil || errScoped != nil {
		if errFull == nil || errScoped == nil || errFull.Error() != errScoped.Error() {
			t.Errorf("%s stage of %+v: full config err %v, scoped err %v", st, cfg, errFull, errScoped)
		}
		return false
	}
	if !bytes.Equal(full, scoped) {
		t.Errorf("%s stage of %+v: artifact differs when run on its scope %+v", st, cfg, st.Scope(cfg))
		return false
	}
	return true
}

// TestScopeOracle is the executable check of Stage.Scope: every stage
// run on st.Scope(cfg) must produce the artifact it produces on cfg,
// compared through the stage codecs (the form the durable tier keys and
// stores). Place and sim are fed the full config's upstream artifacts,
// so each comparison isolates one stage's reads. A field a stage reads
// but its scope zeroes — the way the build scope once dropped a random
// workload's Seed — makes two configs with one key disagree here.
func TestScopeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	n := 60
	if testing.Short() {
		n = 20
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		cfg := randomScopeConfig(rng)

		b, err := BuildStage(ctx, cfg)
		bs, errS := BuildStage(ctx, StageBuild.Scope(cfg))
		var enc, encS []byte
		if err == nil && errS == nil {
			enc, encS = EncodeBuildArtifact(b), EncodeBuildArtifact(bs)
		}
		if !sameOutcome(t, StageBuild, cfg, enc, encS, err, errS) {
			continue
		}

		p, err := PlaceStage(ctx, cfg, b)
		ps, errS := PlaceStage(ctx, StagePlace.Scope(cfg), b)
		if err == nil && errS == nil {
			enc, encS = EncodePlaceArtifact(p), EncodePlaceArtifact(ps)
		}
		if !sameOutcome(t, StagePlace, cfg, enc, encS, err, errS) {
			continue
		}

		// Drop force-directed's simulation byproduct so SimStage
		// actually simulates on both configs.
		bare := &PlaceArtifact{Placement: p.Placement}
		sim, err := SimStage(ctx, cfg, b, bare)
		simS, errS := SimStage(ctx, StageSim.Scope(cfg), b, bare)
		if err == nil && errS == nil {
			enc, encS = EncodeSimArtifact(sim), EncodeSimArtifact(simS)
		}
		if !sameOutcome(t, StageSim, cfg, enc, encS, err, errS) {
			continue
		}

		// A report is keyed by the sim scope, so assembly must be a
		// function of it too.
		full := Assemble(cfg, b, p, sim)
		rep, repS := scalars(full), scalars(Assemble(StageSim.Scope(cfg), b, p, sim))
		rep.Config, repS.Config = Config{}, Config{}
		if rep != repS {
			t.Errorf("report of %+v differs when assembled on its sim scope:\n full   %+v\n scoped %+v", cfg, rep, repS)
		}

		// The report artifact replays every scalar, the derived volumes
		// bit for bit.
		dec, err := DecodeReportArtifact(cfg, EncodeReportArtifact(full))
		if err != nil {
			t.Errorf("report artifact of %+v does not decode: %v", cfg, err)
			continue
		}
		if math.Float64bits(dec.Volume) != math.Float64bits(full.Volume) ||
			math.Float64bits(dec.CriticalVolume) != math.Float64bits(full.CriticalVolume) {
			t.Errorf("report artifact of %+v replays volumes %v/%v, want %v/%v",
				cfg, dec.Volume, dec.CriticalVolume, full.Volume, full.CriticalVolume)
		}
		if scalars(dec) != scalars(full) {
			t.Errorf("report artifact of %+v replays\n %+v\nwant\n %+v", cfg, scalars(dec), scalars(full))
		}
	}
}
