package store

import (
	"fmt"
	"os"
	"path/filepath"

	"magicstate/internal/core"
)

// ScrubReport is the outcome of an offline store verification.
type ScrubReport struct {
	// Entries is the total index entry count on disk (including any
	// past the valid prefix).
	Entries int
	// Valid is the length of the longest valid prefix, in entries:
	// every entry up to here passes its own CRC, is contiguous and
	// in-range, and its payload passes the payload CRC.
	Valid int
	// BadRecords lists soft findings within the valid prefix: records
	// whose payload is not stage-framed (foreign data, or a record of
	// an older unframed encoding) or does not decode under its stage's
	// artifact codec, and duplicate keys. These never block reads
	// (lookups frame- and decode-check anyway) but point at a writer
	// bug or foreign data.
	BadRecords []string
	// Reports counts records within the valid prefix framed as report
	// artifacts (one per pipeline point); Valid - Reports are upstream
	// stage artifacts and unframed payloads.
	Reports int
	// Truncated reports whether the files hold data past the valid
	// prefix — the condition -repair would (or did) truncate away.
	Truncated bool
	// Reason describes the first chain break when Truncated is true.
	Reason string
	// IndexBytes and LogBytes are the on-disk file sizes found.
	IndexBytes, LogBytes int64
	// ValidIndexBytes and ValidLogBytes are the sizes of the valid
	// prefix — what the files are truncated to under -repair.
	ValidIndexBytes, ValidLogBytes int64
	// Repaired reports whether this scrub truncated the files.
	Repaired bool
}

// Clean reports whether the scrub found nothing wrong at all.
func (r *ScrubReport) Clean() bool {
	return !r.Truncated && len(r.BadRecords) == 0
}

// Scrub verifies a store directory offline, without opening it as a
// live Store: it replays the index against the log with the walk
// recovery uses (entry CRC, contiguity, range, payload CRC), then
// applies softer checks within the valid prefix (payloads must be
// stage-framed and decode under their stage's artifact codec, and keys
// must be unique). With repair set, files holding data
// past the valid prefix are truncated back to it — the same operation
// the next Open would perform, done eagerly and reported.
//
// Scrub takes the same in-process single-writer slot a live Store
// would, so it cannot race a Store writing the directory.
func Scrub(dir string, repair bool) (*ScrubReport, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !claimDir(absDir) {
		return nil, fmt.Errorf("store: %s is open in this process; close it before scrubbing", dir)
	}
	defer releaseDir(absDir)

	logBytes, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	idxBytes, err := os.ReadFile(filepath.Join(dir, idxName))
	if err != nil {
		return nil, fmt.Errorf("store: read index: %w", err)
	}

	rep := &ScrubReport{
		Entries:    len(idxBytes) / entrySize,
		IndexBytes: int64(len(idxBytes)),
		LogBytes:   int64(len(logBytes)),
	}
	seen := make(map[Key]bool, rep.Entries)
	rep.Valid, rep.ValidLogBytes, rep.Reason = walk(idxBytes, logBytes, func(entryNo int, k Key, _ extent, payload []byte) {
		if seen[k] {
			rep.BadRecords = append(rep.BadRecords, fmt.Sprintf("entry %d: duplicate key %s", entryNo, k))
		}
		seen[k] = true
		st, body, ok := stagePayload(payload)
		if !ok {
			rep.BadRecords = append(rep.BadRecords, fmt.Sprintf("entry %d (%s): payload is not a framed stage record", entryNo, k))
			return
		}
		if st == core.StageReport {
			rep.Reports++
		}
		if err := core.ValidateStageArtifact(st, body); err != nil {
			rep.BadRecords = append(rep.BadRecords, fmt.Sprintf("entry %d (%s): stage %s payload does not decode: %v", entryNo, k, st, err))
		}
	})
	rep.ValidIndexBytes = int64(rep.Valid * entrySize)
	rep.Truncated = rep.ValidIndexBytes != rep.IndexBytes || rep.ValidLogBytes != rep.LogBytes

	if repair && rep.Truncated {
		if err := os.Truncate(filepath.Join(dir, idxName), rep.ValidIndexBytes); err != nil {
			return rep, fmt.Errorf("store: repair index: %w", err)
		}
		if err := os.Truncate(filepath.Join(dir, logName), rep.ValidLogBytes); err != nil {
			return rep, fmt.Errorf("store: repair log: %w", err)
		}
		rep.Repaired = true
	}
	return rep, nil
}
