package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"magicstate/internal/core"
)

// Key is the content address of a pipeline artifact: a SHA-256 digest
// of the canonical encoding of the config scope that determines it (see
// core.Stage.Scope). Configs with equal scopes collide on a Key, so a
// Key names a result independent of which process (or machine)
// computed it.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// stageKeyFormatVersion is bumped whenever a stage key changes meaning:
// the canonical encoding (digest) or a stage's scope (core.Stage.Scope)
// — a field added to a scope, removed from it, or reinterpreted.
// Bumping it changes every key, which safely orphans — never misreads —
// records written by older encodings.
const stageKeyFormatVersion = 4

// StageKeyOf returns the content address of cfg's artifact for one
// pipeline stage: the digest of st.Scope(cfg) under a stage header.
// The scope holds exactly the fields the stage and its upstream stages
// read, so configs that differ only in downstream axes share upstream
// artifacts; core.Stage.Scope documents the classification field by
// field. TestStageKeyScopes pins the resulting scope matrix. The header
// names the stage, so a report and its simulation, which share a
// scope, still get two keys.
func StageKeyOf(st core.Stage, cfg core.Config) Key {
	return digest(fmt.Sprintf("magicstate/store stage/%s v%d\n", st, stageKeyFormatVersion), st.Scope(cfg))
}

// StageCacheable reports whether cfg's artifact for the given stage can
// be served from (and persisted to) the durable tier. Build and place
// artifacts are lossless for every config. Sim and report artifacts
// omit the Paths/HoldEnd diagnostics (a report replays without its
// simulation), so configs that record them must always resimulate.
func StageCacheable(st core.Stage, cfg core.Config) bool {
	if st == core.StageSim || st == core.StageReport {
		return !cfg.RecordPaths
	}
	return true
}

// digest is the one canonical encoder behind every key: header, then
// every Config field (including the nested force-directed option block)
// by name in a fixed order, so the digest is stable across processes,
// platforms and Go versions for as long as the header's version
// stands. TestKeyGuardsConfigFields pins the Config field set so a new
// field cannot silently be left out of the encoding. Callers pass a
// scope (core.Stage.Scope), which zeroes what the artifact does not
// depend on; the encoder itself never decides relevance.
func digest(header string, cfg core.Config) Key {
	h := sha256.New()
	fmt.Fprint(h, header)
	fmt.Fprintf(h, "K=%d Levels=%d Reuse=%t NoBarriers=%t Strategy=%d Seed=%d\n",
		cfg.K, cfg.Levels, cfg.Reuse, cfg.NoBarriers, int(cfg.Strategy), cfg.Seed)
	fmt.Fprintf(h, "MeshMode=%d Style=%d Distance=%d RecordPaths=%t\n",
		int(cfg.MeshMode), int(cfg.Style), cfg.Distance, cfg.RecordPaths)
	fmt.Fprintf(h, "FD={Iterations=%d Seed=%d MarginRows=%d DisableDipole=%t DisableCommunity=%t RestartWorkers=%d}\n",
		cfg.FD.Iterations, cfg.FD.Seed, cfg.FD.MarginRows, cfg.FD.DisableDipole, cfg.FD.DisableCommunity, cfg.FD.RestartWorkers)
	// %q makes the string fields self-delimiting, so no crafted source
	// text can collide with another field's encoding.
	fmt.Fprintf(h, "Workload=%q WorkloadSource=%q Defects=%q\n",
		cfg.Workload, cfg.WorkloadSource, cfg.Defects)
	var k Key
	h.Sum(k[:0])
	return k
}
