// Package store is the durable tier of the repository's result cache: a
// content-addressed, append-only on-disk store of pipeline stage
// artifacts. Every record is one stage's artifact (core.Stage) — a
// factory build, a placement, a simulation, or the report a point is
// answered with — under one key function, StageKeyOf: a canonical hash
// of the stage's config scope. core.Stage.Scope zeroes the fields an
// artifact does not depend on; it is the one place a new core.Config
// field gets classified. The store is what lets a result outlive the
// process that computed it — the in-memory memo cache of
// internal/sweep/memo answers repeats within a process, and this package
// answers repeats across processes, so any given (capacity, level,
// strategy, style, seed) grid point — the unit of the paper's entire
// §VIII evaluation — is computed once, ever, per store directory.
//
// # Layout
//
// A store directory holds one append-only file, stages.log: records
// back-to-back in append order. Each record is a fixed header — the
// record's key, its stage byte, the payload length, a CRC of the
// payload and a CRC of the header itself — followed by the payload, the
// stage's core codec body. Nothing is ever rewritten in place. An open
// store keeps only each key's record offset in memory and reads the
// record back on demand, checking both CRCs and that the header names
// the key and stage asked for; a record that fails any check is a miss,
// never an answer.
//
// A directory written before the single-file layout holds store.idx
// and store.log instead. Those files are no longer read; the store
// starts empty beside them, and they may be deleted.
//
// # Crash safety
//
// Open recovers the longest valid prefix of the log: records are
// replayed in order and validated (header CRC, payload inside the file,
// payload CRC — the one chain walk Scrub also uses), and the first
// invalid record — a torn write from a crash, a truncated file, flipped
// bits — ends the replay. The log is then truncated back to the
// validated prefix, so a store that crashed mid-append reopens to
// exactly the records that were fully written, and the next append
// continues from there. The store_test.go property test drives this at
// every byte boundary.
//
// # What is stored
//
// A report record holds the scalar outcome of a pipeline run (latency,
// area, bounds, stalls — see core.EncodeReportArtifact), not the
// simulation itself: reports served from disk carry no
// Factory/Placement/Sim pointers. Configurations whose callers need
// those pointers (RecordPaths, i.e. trace rendering) are excluded by
// StageCacheable's sim and report rule and always recompute.
//
// Store is safe for concurrent use by multiple goroutines of one
// process, and Open refuses a directory this process already has open —
// two independently buffered writers would interleave appends and
// corrupt the log. Across processes there is no file locking: keep
// one writing process per directory at a time (readers that open after
// the writer closed are always safe).
package store
