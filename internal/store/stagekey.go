package store

import (
	"fmt"

	"magicstate/internal/core"
)

// stageKeyFormatVersion is bumped whenever a stage key changes meaning:
// the canonical encoding (digest) or a stage's scope (core.Stage.Scope)
// — a field added to a scope, removed from it, or reinterpreted. Like
// keyFormatVersion, bumping it orphans (never misreads) stage records
// written by older encodings.
const stageKeyFormatVersion = 4

// StageKeyOf returns the content address of cfg's artifact for one
// pipeline stage: the digest of st.Scope(cfg) under a stage header.
// The scope holds exactly the fields the stage and its upstream stages
// read, so configs that differ only in downstream axes share upstream
// artifacts; core.Stage.Scope documents the classification field by
// field. TestStageKeyScopes pins the resulting scope matrix.
func StageKeyOf(st core.Stage, cfg core.Config) Key {
	return digest(fmt.Sprintf("magicstate/store stage/%s v%d\n", st, stageKeyFormatVersion), st.Scope(cfg))
}

// StageCacheable reports whether cfg's artifact for the given stage can
// be served from (and persisted to) the durable tier. Build and place
// artifacts are lossless for every config. A sim artifact, like a final
// record, omits the Paths/HoldEnd diagnostics, so configs that record
// them must always resimulate; StageCacheable(core.StageSim, cfg) is
// also the final-record rule.
func StageCacheable(st core.Stage, cfg core.Config) bool {
	if st == core.StageSim {
		return !cfg.RecordPaths
	}
	return true
}
