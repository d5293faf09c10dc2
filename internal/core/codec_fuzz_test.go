package core

import (
	"bytes"
	"context"
	"testing"
)

// FuzzStageArtifactDecode hammers the strict-decode contract of every
// stage codec: arbitrary bytes must either be rejected with an error or
// decode into an artifact whose re-encoding is a fixed point — decode
// then encode then decode again lands on identical bytes, so nothing
// half-parsed can ever be admitted and replayed. A panic (slice out of
// range, giant allocation from a corrupt count) is a failure by
// construction.
func FuzzStageArtifactDecode(f *testing.F) {
	// Seed with one pristine record per kind plus near-miss mutations,
	// so the fuzzer starts at the format's cliff edges instead of in
	// random-noise flatland.
	// The config stays cheap on purpose: this setup reruns once per fuzz
	// worker, so an expensive build would starve the fuzzer itself.
	cfg := Config{K: 2, Levels: 1, Strategy: StrategyLinear}
	ctx := context.Background()
	b, err := BuildStage(ctx, cfg)
	if err != nil {
		f.Fatal(err)
	}
	p, err := PlaceStage(ctx, cfg, b)
	if err != nil {
		f.Fatal(err)
	}
	sim, err := SimStage(ctx, cfg, b, p)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		EncodeBuildArtifact(b),
		// A build artifact carrying a placement (the stitch shape),
		// synthesized without paying for a stitch anneal.
		EncodeBuildArtifact(&BuildArtifact{Factory: b.Factory, Placement: p.Placement}),
		EncodePlaceArtifact(p),
		EncodeSimArtifact(sim),
		EncodeReportArtifact(Assemble(cfg, b, p, sim)),
	}
	for _, s := range seeds {
		for _, st := range Stages() {
			f.Add(byte(st), s)
		}
		f.Add(byte(StageBuild), s[:len(s)/2])
		truncTail := append([]byte(nil), s...)
		f.Add(byte(StageSim), append(truncTail, 7))
	}
	f.Add(byte(0), []byte(nil))
	f.Add(byte(200), []byte("msc/build\x01"))

	f.Fuzz(func(t *testing.T, stageByte byte, data []byte) {
		st := Stage(stageByte)
		if err := ValidateStageArtifact(st, data); err != nil {
			return // rejected cleanly — the common, correct outcome
		}
		// Admitted: the decoded value must re-encode canonically.
		var reenc []byte
		switch st {
		case StageBuild:
			a, err := DecodeBuildArtifact(data)
			if err != nil {
				t.Fatalf("ValidateStageArtifact admitted what DecodeBuildArtifact rejects: %v", err)
			}
			reenc = EncodeBuildArtifact(a)
		case StagePlace:
			a, err := DecodePlaceArtifact(data)
			if err != nil {
				t.Fatalf("ValidateStageArtifact admitted what DecodePlaceArtifact rejects: %v", err)
			}
			reenc = EncodePlaceArtifact(a)
		case StageSim:
			a, err := DecodeSimArtifact(data)
			if err != nil {
				t.Fatalf("ValidateStageArtifact admitted what DecodeSimArtifact rejects: %v", err)
			}
			reenc = EncodeSimArtifact(a)
		case StageReport:
			a, err := DecodeReportArtifact(Config{}, data)
			if err != nil {
				t.Fatalf("ValidateStageArtifact admitted what DecodeReportArtifact rejects: %v", err)
			}
			reenc = EncodeReportArtifact(a)
		default:
			t.Fatalf("unknown stage %d was admitted", st)
		}
		// The canonical form is a fixed point: decoding the re-encoding
		// and encoding once more must reproduce it byte for byte.
		if err := ValidateStageArtifact(st, reenc); err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		var again []byte
		switch st {
		case StageBuild:
			a, _ := DecodeBuildArtifact(reenc)
			again = EncodeBuildArtifact(a)
		case StagePlace:
			a, _ := DecodePlaceArtifact(reenc)
			again = EncodePlaceArtifact(a)
		case StageSim:
			a, _ := DecodeSimArtifact(reenc)
			again = EncodeSimArtifact(a)
		case StageReport:
			a, _ := DecodeReportArtifact(Config{}, reenc)
			again = EncodeReportArtifact(a)
		}
		if !bytes.Equal(reenc, again) {
			t.Fatal("re-encoding is not a fixed point; the codec admits a non-canonical form it cannot reproduce")
		}
	})
}
