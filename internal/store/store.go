package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"magicstate/internal/core"
)

const (
	// logName is the one file of a store directory.
	logName = "stages.log"

	// headerSize is the fixed width of the header that opens every
	// record: key[32] | stage byte | payload length uint32 |
	// payload CRC32 uint32 | header CRC32 uint32 (over the first 41
	// bytes). All integers are little-endian; the payload follows.
	headerSize = 32 + 1 + 4 + 4 + 4
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Stats is a point-in-time snapshot of a store's counters, exposed to
// callers (sweep engine stats, the msfud /v1/stats endpoint).
type Stats struct {
	// Puts counts report records (core.StageReport) appended since Open
	// (duplicates excluded). Because every cacheable pipeline run
	// persists exactly one report, this doubles as the "points
	// computed" count.
	Puts int64
	// Records is the live report-record count, recovered records
	// included.
	Records int
	// StagePuts counts the other stage records (build, place, sim
	// artifacts) appended since Open (duplicates excluded).
	StagePuts int64
	// StageRecords is the live count of every other record; Records +
	// StageRecords is the total the log holds.
	StageRecords int
	// LogBytes is the current size of the record log in bytes.
	LogBytes int64
}

// storeFile is the slice of *os.File the store drives. Production opens
// a real file; fault-injection tests and soak harnesses wrap it in a
// faultFile that fails, stalls or tears writes on demand (see fault.go).
type storeFile interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is a durable, append-only map from a stage key to a stage
// artifact, with crash-safe recovery (see the package comment for the
// file format and recovery rules). Only each key's record offset and
// payload length are held in memory once opened, because payloads range
// from a dozen bytes (reports) to kilobytes (factory builds); GetStage
// reads the record back from the log and verifies it. Store is safe for
// concurrent use within one process.
type Store struct {
	mu     sync.Mutex
	dir    string
	absDir string
	logF   storeFile
	mem    map[Key]extent
	logLen int64
	closed bool

	// Reports are counted apart from the upstream artifacts so
	// "records stored" keeps meaning "pipeline points answered" for
	// stats consumers, however many intermediate artifacts ride along.
	puts, stagePuts int64
	reports         int
}

// extent locates one record in the log: its header's offset and its
// payload's length.
type extent struct {
	off int64
	n   uint32
}

// header is one record's decoded header.
type header struct {
	key Key
	st  core.Stage
	n   uint32
	crc uint32 // CRC32 (IEEE) of the payload
}

// appendRecord appends the framed record for (k, st, body) to dst.
func appendRecord(dst []byte, k Key, st core.Stage, body []byte) []byte {
	start := len(dst)
	dst = append(dst, k[:]...)
	dst = append(dst, byte(st))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return append(dst, body...)
}

// parseHeader decodes a record header; ok is false when it fails its
// own CRC.
func parseHeader(b []byte) (h header, ok bool) {
	if crc32.ChecksumIEEE(b[:headerSize-4]) != binary.LittleEndian.Uint32(b[headerSize-4:headerSize]) {
		return h, false
	}
	copy(h.key[:], b[:32])
	h.st = core.Stage(b[32])
	h.n = binary.LittleEndian.Uint32(b[33:37])
	h.crc = binary.LittleEndian.Uint32(b[37:41])
	return h, true
}

// openDirs guards against two Stores writing one directory from the
// same process — independently tracked append offsets would interleave
// and corrupt the log. Cross-process exclusion is the operator's job
// (see the package comment); in-process it is cheap to make a hard
// error instead of a corruption.
var openDirs = struct {
	mu   sync.Mutex
	dirs map[string]bool
}{dirs: make(map[string]bool)}

// claimDir takes absDir's in-process single-writer slot, or reports
// false when a Store (or a running Scrub) already holds it.
func claimDir(absDir string) bool {
	openDirs.mu.Lock()
	defer openDirs.mu.Unlock()
	if openDirs.dirs[absDir] {
		return false
	}
	openDirs.dirs[absDir] = true
	return true
}

// releaseDir gives back a slot claimDir took.
func releaseDir(absDir string) {
	openDirs.mu.Lock()
	delete(openDirs.dirs, absDir)
	openDirs.mu.Unlock()
}

// Open opens (creating if needed) the store in dir and recovers the
// longest valid prefix of its log: replay stops at the first record
// whose header is torn or fails its CRC, whose payload runs past the
// end of the file, or whose payload fails its CRC; the log is truncated
// back to the validated prefix so subsequent appends continue from a
// clean end of log.
func Open(dir string) (*Store, error) { return open(dir, nil) }

// OpenWithFaults is Open with deliberate fault injection: every file
// operation the store issues flows through plan, which can fail, stall
// or tear writes and fail syncs on schedule. It exists to exercise the
// recovery path on purpose — the msfud soak harness runs its store this
// way — and has no place in production use. A nil plan is plain Open.
func OpenWithFaults(dir string, plan *FaultPlan) (*Store, error) { return open(dir, plan) }

// open opens (creating if needed) the store in dir, wrapping its log
// in plan's fault injector when plan is non-nil.
func open(dir string, plan *FaultPlan) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !claimDir(absDir) {
		return nil, fmt.Errorf("store: %s is already open in this process (one writer per directory)", dir)
	}
	raw, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		releaseDir(absDir)
		return nil, fmt.Errorf("store: %w", err)
	}
	var logF storeFile = raw
	if plan != nil {
		logF = plan.wrap(raw)
	}
	s := &Store{dir: dir, absDir: absDir, logF: logF, mem: make(map[Key]extent)}
	if err := s.recover(); err != nil {
		logF.Close()
		releaseDir(absDir)
		return nil, err
	}
	return s, nil
}

// recover replays the log and truncates it to the longest valid prefix.
func (s *Store) recover() error {
	log, err := io.ReadAll(s.logF)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	_, validLog, _ := walk(log, func(_ int, off int64, h header, _ []byte) {
		s.mem[h.key] = extent{off: off, n: h.n}
		if h.st == core.StageReport {
			s.reports++
		}
	})
	if validLog != int64(len(log)) {
		if err := s.logF.Truncate(validLog); err != nil {
			return fmt.Errorf("store: truncate log: %w", err)
		}
	}
	if _, err := s.logF.Seek(validLog, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.logLen = validLog
	return nil
}

// walk replays a log, the one chain walk behind recovery and Scrub. It
// calls visit for each record, in order, with the record's offset,
// while the chain holds: the header is whole and passes its CRC, and
// the payload lies inside the log and passes the payload CRC. It
// returns the valid prefix — its record count and byte length — and
// the reason for the first break, "" when every byte replays.
func walk(log []byte, visit func(rec int, off int64, h header, payload []byte)) (records int, logLen int64, reason string) {
	for logLen < int64(len(log)) {
		rest := log[logLen:]
		if len(rest) < headerSize {
			return records, logLen, fmt.Sprintf("record %d header is torn (%d of %d bytes)", records, len(rest), headerSize)
		}
		h, ok := parseHeader(rest)
		if !ok {
			return records, logLen, fmt.Sprintf("record %d fails its header CRC", records)
		}
		if int64(h.n) > int64(len(rest)-headerSize) {
			return records, logLen, fmt.Sprintf("record %d payload extends past the log end (%d of %d bytes)", records, len(rest)-headerSize, h.n)
		}
		payload := rest[headerSize : headerSize+int(h.n)]
		if crc32.ChecksumIEEE(payload) != h.crc {
			return records, logLen, fmt.Sprintf("record %d payload fails its CRC", records)
		}
		visit(records, logLen, h, payload)
		records++
		logLen += int64(headerSize + len(payload))
	}
	return records, logLen, ""
}

// Dir reports the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// PutStage persists a stage artifact body under its stage-scoped key.
// Uncacheable combinations are silently skipped so callers can offer
// every artifact without gating.
func (s *Store) PutStage(st core.Stage, cfg core.Config, body []byte) error {
	if !StageCacheable(st, cfg) {
		return nil
	}
	return s.put(StageKeyOf(st, cfg), st, body)
}

// GetStage returns the stage artifact body stored for cfg. A miss
// means the caller recomputes.
func (s *Store) GetStage(st core.Stage, cfg core.Config) ([]byte, bool) {
	if !StageCacheable(st, cfg) {
		return nil, false
	}
	return s.get(StageKeyOf(st, cfg), st)
}

// get returns the payload of the record under k, read back from the
// log. The boolean reports whether the key was present and its record
// read back intact as a stage-st record: a read error, a header or
// payload that no longer matches its CRC, a header naming another key
// or stage, and a closed store all report a miss, so the caller
// recomputes.
func (s *Store) get(k Key, st core.Stage) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.mem[k]
	if !ok || s.closed {
		return nil, false
	}
	rec := make([]byte, headerSize+int(x.n))
	if _, err := s.logF.ReadAt(rec, x.off); err != nil {
		return nil, false
	}
	h, ok := parseHeader(rec)
	payload := rec[headerSize:]
	if !ok || h.key != k || h.st != st || h.n != x.n || crc32.ChecksumIEEE(payload) != h.crc {
		return nil, false
	}
	return payload, true
}

// put appends a stage-st record under k. A key already present is left
// untouched (results are deterministic per key, so the first record is
// as good as any) and put returns nil. The record is one write, header
// and payload together; if it fails (a full disk, say), the log is
// rolled back to its pre-put length, so a torn fragment never costs the
// records appended after it.
func (s *Store) put(k Key, st core.Stage, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.mem[k]; ok {
		return nil
	}
	rec := appendRecord(make([]byte, 0, headerSize+len(body)), k, st, body)
	if _, err := s.logF.Write(rec); err != nil {
		s.rollback()
		return fmt.Errorf("store: append: %w", err)
	}
	s.mem[k] = extent{off: s.logLen, n: uint32(len(body))}
	s.logLen += int64(len(rec))
	if st == core.StageReport {
		s.puts++
		s.reports++
	} else {
		s.stagePuts++
	}
	return nil
}

// rollback restores the log to the last committed record boundary after
// a failed append. Errors are deliberately dropped: if even truncation
// fails the on-disk CRCs still confine the damage, at worst costing the
// records after the tear at the next Open.
func (s *Store) rollback() {
	s.logF.Truncate(s.logLen)
	s.logF.Seek(s.logLen, io.SeekStart)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Puts: s.puts, Records: s.reports,
		StagePuts: s.stagePuts, StageRecords: len(s.mem) - s.reports,
		LogBytes: s.logLen,
	}
}

// Close syncs and closes the log. A closed store rejects PutStage, and
// every GetStage on it is a miss.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	errSync := s.logF.Sync()
	errClose := s.logF.Close()
	releaseDir(s.absDir)
	if err := errors.Join(errSync, errClose); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
