package store

import (
	"crypto/sha256"
	"fmt"
	"io"

	"magicstate/internal/core"
)

// stageKeyFormatVersion is bumped whenever a stage's canonical encoding
// below changes meaning — a field added to a stage's scope, removed
// from it, or reinterpreted. Like keyFormatVersion, bumping it orphans
// (never misreads) stage records written by older encodings.
const stageKeyFormatVersion = 3

// StageKeyOf returns the content address of cfg's artifact for one
// pipeline stage. Where KeyOf digests every Config field (the final
// result depends on all of them), a stage key digests exactly the
// fields that stage consumes, so configs that differ only in
// downstream axes share upstream artifacts:
//
//   - StageBuild (flat strategies): {K, Levels, Reuse, NoBarriers,
//     Workload, WorkloadSource}. Every seed, style and mapper shares
//     one factory; a frontend workload determines the
//     circuit, so it scopes the build for every stage downstream.
//   - StageBuild (stitching): the above plus Seed — building and
//     placing are one fused, seeded optimization there (the artifact
//     carries the placement).
//   - StagePlace: the build scope plus Strategy, Defects (every mapper
//     relocates qubits off defective tiles) and what the mapper reads —
//     Seed for the seeded mappers (Random, GP, FD), nothing extra for
//     Linear, and for FD also the FD options and the mesh scope,
//     because FD scores candidates in simulation.
//   - StageSim: the place scope plus the mesh scope {MeshMode, Style,
//     Distance, Defects}.
//
// RecordPaths appears in no stage scope: it changes which diagnostics a
// simulation retains, never its outcome, so it gates sim-stage
// cacheability (StageCacheable) instead of aliasing keys. Likewise
// FD.RestartWorkers stays excluded for the reason KeyOf documents.
// TestStageKeyScopes pins the scope matrix field by field, and a
// reflection guard ties it to the Config field set so a new field
// cannot silently join (or miss) a stage's scope.
func StageKeyOf(st core.Stage, cfg core.Config) Key {
	h := sha256.New()
	fmt.Fprintf(h, "magicstate/store stage/%s v%d\n", st, stageKeyFormatVersion)
	switch st {
	case core.StageBuild:
		writeBuildScope(h, cfg)
	case core.StagePlace:
		writePlaceScope(h, cfg)
	case core.StageSim:
		writePlaceScope(h, cfg)
		writeMeshScope(h, cfg)
	default:
		// An unknown stage must never alias a real one; digest the full
		// config under the stage number so the key is still total.
		fmt.Fprintf(h, "unknown=%d full=%s\n", int(st), KeyOf(cfg))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// writeBuildScope digests what the factory build consumes.
func writeBuildScope(h io.Writer, cfg core.Config) {
	fmt.Fprintf(h, "K=%d Levels=%d Reuse=%t NoBarriers=%t\n",
		cfg.K, cfg.Levels, cfg.Reuse, cfg.NoBarriers)
	fmt.Fprintf(h, "Workload=%q WorkloadSource=%q\n", cfg.Workload, cfg.WorkloadSource)
	if cfg.Strategy == core.StrategyStitch {
		fmt.Fprintf(h, "kind=stitch Seed=%d\n", cfg.Seed)
	} else {
		fmt.Fprintf(h, "kind=bravyi\n")
	}
}

// writePlaceScope digests what the mapper consumes: the build scope
// (its input) plus the strategy and its own knobs.
func writePlaceScope(h io.Writer, cfg core.Config) {
	writeBuildScope(h, cfg)
	fmt.Fprintf(h, "Strategy=%d\n", int(cfg.Strategy))
	// Every mapper (including the stitch pass-through) relocates qubits
	// off defective tiles, so the defect map scopes every placement.
	fmt.Fprintf(h, "Defects=%q\n", cfg.Defects)
	switch cfg.Strategy {
	case core.StrategyRandom, core.StrategyGraphPartition:
		fmt.Fprintf(h, "Seed=%d\n", cfg.Seed)
	case core.StrategyForceDirected:
		fmt.Fprintf(h, "Seed=%d\n", cfg.Seed)
		// RestartWorkers excluded: the annealer never reads it.
		fmt.Fprintf(h, "FD={Iterations=%d Seed=%d MarginRows=%d DisableDipole=%t DisableCommunity=%t}\n",
			cfg.FD.Iterations, cfg.FD.Seed, cfg.FD.MarginRows, cfg.FD.DisableDipole, cfg.FD.DisableCommunity)
		// FD scores its candidates in simulation, so the simulator's
		// configuration shapes which placement wins.
		writeMeshScope(h, cfg)
	}
	// StrategyLinear is deterministic from the factory alone, and
	// stitching's placement is fixed by its build scope.
}

// writeMeshScope digests what the simulator consumes beyond the circuit
// and placement. RecordPaths is deliberately absent (see StageKeyOf).
func writeMeshScope(h io.Writer, cfg core.Config) {
	fmt.Fprintf(h, "MeshMode=%d Style=%d Distance=%d Defects=%q\n",
		int(cfg.MeshMode), int(cfg.Style), cfg.Distance, cfg.Defects)
}

// StageCacheable reports whether cfg's artifact for the given stage can
// be served from (and persisted to) the durable tier. Build and place
// artifacts are lossless for every config. A sim artifact omits the
// Paths/HoldEnd diagnostics, so configs that record them must always
// resimulate — the same rule Cacheable applies to final records.
func StageCacheable(st core.Stage, cfg core.Config) bool {
	if st == core.StageSim {
		return !cfg.RecordPaths
	}
	return true
}
