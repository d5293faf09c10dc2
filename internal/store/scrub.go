package store

import (
	"fmt"
	"os"
	"path/filepath"

	"magicstate/internal/core"
)

// ScrubReport is the outcome of an offline store verification.
type ScrubReport struct {
	// Valid is the length of the longest valid prefix, in records:
	// every record up to here has a whole header that passes its CRC
	// and a payload that lies inside the log and passes the payload
	// CRC.
	Valid int
	// BadRecords lists soft findings within the valid prefix: records
	// whose payload does not decode under its stage's artifact codec
	// (an unknown stage byte included), and duplicate keys. These never
	// block reads (lookups stage- and decode-check anyway) but point at
	// a writer bug or foreign data.
	BadRecords []string
	// Reports counts report records (one per pipeline point) within
	// the valid prefix; Valid - Reports are upstream stage artifacts.
	Reports int
	// Truncated reports whether the log holds data past the valid
	// prefix — the condition -repair would (or did) truncate away.
	Truncated bool
	// Reason describes the first chain break when Truncated is true.
	Reason string
	// LogBytes is the on-disk log size found.
	LogBytes int64
	// ValidLogBytes is the size of the valid prefix — what the log is
	// truncated to under -repair.
	ValidLogBytes int64
	// Repaired reports whether this scrub truncated the log.
	Repaired bool
}

// Clean reports whether the scrub found nothing wrong at all.
func (r *ScrubReport) Clean() bool {
	return !r.Truncated && len(r.BadRecords) == 0
}

// Scrub verifies a store directory offline, without opening it as a
// live Store: it replays the log with the walk recovery uses (header
// CRC, range, payload CRC), then applies softer checks within the valid
// prefix (payloads must decode under their stage's artifact codec, and
// keys must be unique). With repair set, a log holding data past the
// valid prefix is truncated back to it — the same operation the next
// Open would perform, done eagerly and reported.
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

	logPath := filepath.Join(dir, logName)
	log, err := os.ReadFile(logPath)
	if err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}

	rep := &ScrubReport{LogBytes: int64(len(log))}
	seen := make(map[Key]bool)
	rep.Valid, rep.ValidLogBytes, rep.Reason = walk(log, func(recNo int, _ int64, h header, payload []byte) {
		if seen[h.key] {
			rep.BadRecords = append(rep.BadRecords, fmt.Sprintf("record %d: duplicate key %s", recNo, h.key))
		}
		seen[h.key] = true
		if h.st == core.StageReport {
			rep.Reports++
		}
		if err := core.ValidateStageArtifact(h.st, payload); err != nil {
			rep.BadRecords = append(rep.BadRecords, fmt.Sprintf("record %d (%s): stage %s payload does not decode: %v", recNo, h.key, h.st, err))
		}
	})
	rep.Truncated = rep.ValidLogBytes != rep.LogBytes

	if repair && rep.Truncated {
		if err := os.Truncate(logPath, rep.ValidLogBytes); err != nil {
			return rep, fmt.Errorf("store: repair log: %w", err)
		}
		rep.Repaired = true
	}
	return rep, nil
}
