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

// keyFormatVersion is bumped whenever a final key changes meaning: the
// canonical encoding below (a field added, renamed, or reinterpreted)
// or the scope it digests. Bumping it changes every key, which safely
// orphans — never misreads — records written by older encodings.
const keyFormatVersion = 5

// KeyOf returns the content address of cfg's final record: the digest
// of its sim scope. A report is a pure function of that scope (beyond
// the stage artifacts, core.Assemble reads only Levels and Strategy),
// so configs that differ only in fields no stage reads share one
// record.
func KeyOf(cfg core.Config) Key {
	return digest(fmt.Sprintf("magicstate/store v%d\n", keyFormatVersion), core.StageSim.Scope(cfg))
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
