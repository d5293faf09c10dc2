// Package sweep is the concurrent batch executor behind the repository's
// evaluation pipeline. The paper's whole evaluation (§VIII) is a grid of
// independent (capacity, level, strategy, style, seed) pipeline runs;
// sweep accepts such a grid as a slice of core.Config points, executes it
// on a bounded worker pool, and returns reports in the exact order the
// points were submitted, so callers that used to write nested serial
// loops get the same rows back regardless of worker count.
//
// The engine adds four things over a bare errgroup:
//
//   - memoization: identical Config points (several figures re-evaluate
//     the same grid cells) are computed once per engine and shared.
//     Concurrent callers share one flight that outlives any single one
//     of them (see RunOneContext and internal/sweep/memo);
//   - a durable cache tier: an engine given a store (Options.Store)
//     consults it beneath the in-memory memo — memory first, then disk,
//     then compute-and-persist — so results survive the process and a
//     killed sweep resumes by recomputing nothing it already stored.
//     Options.Peers adds a cluster tier beneath the disk (peers.go);
//   - deterministic ordering: results[i] always corresponds to
//     cfgs[i]; on failure, the engine stops dispatching and reports
//     the lowest-indexed point that ran and failed (a serial run
//     reports exactly the first failure);
//   - cancellation and progress: a context.Context stops the sweep
//     between points, and an optional callback observes completion
//     counts for long grids.
//
// Every pipeline stage the engine runs is deterministic per Config, so a
// fixed-seed grid produces byte-identical results at any worker count —
// the determinism regression test in internal/experiments holds the
// repository to that — and the disk tier preserves the property: a
// resumed sweep renders artifacts byte-identical to an uninterrupted
// one (see TestResumeByteIdentical).
//
// Engines that must share one cache tier but differ in width or
// progress reporting — the msfud service caps workers per request —
// derive narrower views with Engine.Derive instead of constructing
// separate engines.
package sweep
