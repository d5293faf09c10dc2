package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"magicstate/internal/core"
)

// Key is the content address of a pipeline configuration: a SHA-256
// digest of the canonical encoding KeyOf produces. Two core.Config
// values collide on a Key exactly when they are equal, so a Key names a
// result independent of which process (or machine) computed it.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyFormatVersion is bumped whenever the canonical encoding below
// changes meaning (field added, renamed, or reinterpreted). Bumping it
// changes every key, which safely orphans — never misreads — records
// written by older encodings.
const keyFormatVersion = 4

// KeyOf returns the canonical content address of cfg. The encoding
// writes every Config field (including the nested force-directed option
// block) by name in a fixed order,
// so the digest is stable across processes, platforms and Go versions
// for as long as keyFormatVersion stands. TestKeyGuardsConfigFields
// pins the Config field set so a new field cannot silently be left out
// of the encoding (which would serve stale results for configs that
// differ only in that field).
func KeyOf(cfg core.Config) Key {
	h := sha256.New()
	fmt.Fprintf(h, "magicstate/store v%d\n", keyFormatVersion)
	fmt.Fprintf(h, "K=%d Levels=%d Reuse=%t NoBarriers=%t Strategy=%d Seed=%d\n",
		cfg.K, cfg.Levels, cfg.Reuse, cfg.NoBarriers, int(cfg.Strategy), cfg.Seed)
	fmt.Fprintf(h, "MeshMode=%d Style=%d Distance=%d RecordPaths=%t\n",
		int(cfg.MeshMode), int(cfg.Style), cfg.Distance, cfg.RecordPaths)
	// FD.RestartWorkers is deliberately left out: the annealer never
	// reads it, so configs that differ only in it share one stored
	// result.
	fmt.Fprintf(h, "FD={Iterations=%d Seed=%d MarginRows=%d DisableDipole=%t DisableCommunity=%t}\n",
		cfg.FD.Iterations, cfg.FD.Seed, cfg.FD.MarginRows, cfg.FD.DisableDipole, cfg.FD.DisableCommunity)
	// %q makes the string fields self-delimiting, so no crafted source
	// text can collide with another field's encoding.
	fmt.Fprintf(h, "Workload=%q WorkloadSource=%q Defects=%q\n",
		cfg.Workload, cfg.WorkloadSource, cfg.Defects)
	var k Key
	h.Sum(k[:0])
	return k
}

// Cacheable reports whether cfg's result can be served from disk. A
// stored Record keeps only the scalar outcome of a run, so configs
// whose callers need the in-memory simulation artifacts — RecordPaths
// retains braid paths for trace rendering and congestion maps — must
// always recompute and are excluded from the durable tier.
func Cacheable(cfg core.Config) bool { return !cfg.RecordPaths }
