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
)

const (
	// logName and idxName are the two files of a store directory.
	logName = "store.log"
	idxName = "store.idx"

	// entrySize is the fixed width of one index entry:
	// key[32] | log offset uint64 | payload length uint32 |
	// payload CRC32 uint32 | entry CRC32 uint32 (over the first 48
	// bytes). All integers are little-endian.
	entrySize = 32 + 8 + 4 + 4 + 4
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
	// Records is the live report-record count, recovered entries
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
// real files; fault-injection tests and soak harnesses wrap them in a
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

// Store is a durable, append-only map from a stage key to a framed
// stage artifact, with crash-safe recovery (see the package comment for
// the file format and recovery rules). Only the index is held in memory
// once opened — each key's extent in the log and its payload CRC —
// because payloads range from a dozen bytes (reports) to kilobytes
// (factory builds); GetStage reads the payload back from the log and
// verifies its CRC. Store is safe for concurrent use within one
// process.
type Store struct {
	mu     sync.Mutex
	dir    string
	absDir string
	logF   storeFile
	idxF   storeFile
	mem    map[Key]extent
	logLen int64
	idxLen int64
	closed bool

	// Reports are counted apart from the upstream artifacts so
	// "records stored" keeps meaning "pipeline points answered" for
	// stats consumers, however many intermediate artifacts ride along.
	puts, stagePuts int64
	reports         int
}

// extent locates one record's payload in the log.
type extent struct {
	off int64
	n   uint32
	crc uint32 // CRC32 (IEEE) of the payload
}

// openDirs guards against two Stores writing one directory from the
// same process — independently tracked append offsets would interleave
// and corrupt both files. Cross-process exclusion is the operator's job
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
// longest valid prefix of its files: replay stops at the first index
// entry that fails its own CRC, references a non-contiguous or
// out-of-range log extent, or points at a payload that fails its CRC;
// both files are truncated back to the validated prefix so subsequent
// appends continue from a clean end of log.
func Open(dir string) (*Store, error) { return open(dir, nil) }

// OpenWithFaults is Open with deliberate fault injection: every file
// operation the store issues flows through plan, which can fail, stall
// or tear writes and fail syncs on schedule. It exists to exercise the
// recovery path on purpose — the msfud soak harness runs its store this
// way — and has no place in production use. A nil plan is plain Open.
func OpenWithFaults(dir string, plan *FaultPlan) (*Store, error) { return open(dir, plan) }

// open opens (creating if needed) the store in dir, wrapping its files
// in plan's fault injectors when plan is non-nil.
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
	rawLog, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		releaseDir(absDir)
		return nil, fmt.Errorf("store: %w", err)
	}
	rawIdx, err := os.OpenFile(filepath.Join(dir, idxName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		rawLog.Close()
		releaseDir(absDir)
		return nil, fmt.Errorf("store: %w", err)
	}
	var logF, idxF storeFile = rawLog, rawIdx
	if plan != nil {
		logF, idxF = plan.wrap(rawLog), plan.wrap(rawIdx)
	}
	s := &Store{dir: dir, absDir: absDir, logF: logF, idxF: idxF, mem: make(map[Key]extent)}
	if err := s.recover(); err != nil {
		logF.Close()
		idxF.Close()
		releaseDir(absDir)
		return nil, err
	}
	return s, nil
}

// recover replays the index against the log and truncates both files to
// the longest valid prefix.
func (s *Store) recover() error {
	logBytes, err := io.ReadAll(s.logF)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	idxBytes, err := io.ReadAll(s.idxF)
	if err != nil {
		return fmt.Errorf("store: read index: %w", err)
	}

	validEntries, validLog, _ := walk(idxBytes, logBytes, func(_ int, k Key, x extent, payload []byte) {
		s.mem[k] = x
		if isReport(payload) {
			s.reports++
		}
	})

	if int64(validEntries*entrySize) != int64(len(idxBytes)) {
		if err := s.idxF.Truncate(int64(validEntries * entrySize)); err != nil {
			return fmt.Errorf("store: truncate index: %w", err)
		}
	}
	if validLog != int64(len(logBytes)) {
		if err := s.logF.Truncate(validLog); err != nil {
			return fmt.Errorf("store: truncate log: %w", err)
		}
	}
	if _, err := s.logF.Seek(validLog, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.idxF.Seek(int64(validEntries*entrySize), io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.logLen = validLog
	s.idxLen = int64(validEntries * entrySize)
	return nil
}

// walk replays an index against its log, the one chain walk behind
// recovery and Scrub. It calls visit for each entry, in order, while
// the chain holds: the entry passes its own CRC, its extent starts
// where the previous one ended and lies inside the log, and its payload
// passes the payload CRC. It returns the valid prefix — its entry count
// and log length — and the reason for the first break, "" when every
// byte of both files replays.
func walk(idx, log []byte, visit func(entry int, k Key, x extent, payload []byte)) (entries int, logLen int64, reason string) {
	for off := 0; off+entrySize <= len(idx); off += entrySize {
		e := idx[off : off+entrySize]
		if crc32.ChecksumIEEE(e[:48]) != binary.LittleEndian.Uint32(e[48:52]) {
			return entries, logLen, fmt.Sprintf("entry %d fails its entry CRC", entries)
		}
		x := extent{
			off: int64(binary.LittleEndian.Uint64(e[32:40])),
			n:   binary.LittleEndian.Uint32(e[40:44]),
			crc: binary.LittleEndian.Uint32(e[44:48]),
		}
		if x.off != logLen {
			return entries, logLen, fmt.Sprintf("entry %d is non-contiguous (offset %d, want %d)", entries, x.off, logLen)
		}
		end := x.off + int64(x.n)
		if end > int64(len(log)) {
			return entries, logLen, fmt.Sprintf("entry %d extends past the log end (%d+%d > %d)", entries, x.off, x.n, len(log))
		}
		payload := log[x.off:end]
		if crc32.ChecksumIEEE(payload) != x.crc {
			return entries, logLen, fmt.Sprintf("entry %d payload fails its CRC", entries)
		}
		var k Key
		copy(k[:], e[:32])
		visit(entries, k, x, payload)
		entries++
		logLen = end
	}
	if len(idx)%entrySize != 0 {
		return entries, logLen, fmt.Sprintf("index length %d is not a multiple of the %d-byte entry size (torn tail)", len(idx), entrySize)
	}
	if logLen != int64(len(log)) {
		return entries, logLen, fmt.Sprintf("log holds %d bytes past the last indexed record", int64(len(log))-logLen)
	}
	return entries, logLen, ""
}

// Dir reports the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// get returns the payload stored under k, read from the log and
// checked against the CRC its index entry recorded. The boolean reports
// whether the key was present and its payload read back intact: a read
// error, a payload that no longer matches its CRC and a closed store
// all report a miss, so the caller recomputes.
func (s *Store) get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.mem[k]
	if !ok || s.closed {
		return nil, false
	}
	p := make([]byte, x.n)
	if _, err := s.logF.ReadAt(p, x.off); err != nil || crc32.ChecksumIEEE(p) != x.crc {
		return nil, false
	}
	return p, true
}

// put appends a record under k. A key already present is left untouched
// (results are deterministic per key, so the first record is as good as
// any) and put returns nil. The payload is written to the log first and
// the index entry second, so a crash between the two leaves an orphan
// payload that recovery discards; if either write fails outright (a
// full disk, say), both files are rolled back to their pre-put lengths
// — a torn index fragment left in place would break the fixed-width
// entry alignment and cost every later record at the next recovery.
func (s *Store) put(k Key, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.mem[k]; ok {
		return nil
	}
	if _, err := s.logF.Write(payload); err != nil {
		s.rollback()
		return fmt.Errorf("store: append log: %w", err)
	}
	x := extent{off: s.logLen, n: uint32(len(payload)), crc: crc32.ChecksumIEEE(payload)}
	var e [entrySize]byte
	copy(e[:32], k[:])
	binary.LittleEndian.PutUint64(e[32:40], uint64(x.off))
	binary.LittleEndian.PutUint32(e[40:44], x.n)
	binary.LittleEndian.PutUint32(e[44:48], x.crc)
	binary.LittleEndian.PutUint32(e[48:52], crc32.ChecksumIEEE(e[:48]))
	if _, err := s.idxF.Write(e[:]); err != nil {
		s.rollback()
		return fmt.Errorf("store: append index: %w", err)
	}
	s.logLen += int64(len(payload))
	s.idxLen += entrySize
	s.mem[k] = x
	if isReport(payload) {
		s.puts++
		s.reports++
	} else {
		s.stagePuts++
	}
	return nil
}

// rollback restores both files to the last committed record boundary
// after a failed append — partial payloads and torn index fragments are
// truncated away so the next put (or the next recovery) sees aligned,
// contiguous files. Errors are deliberately dropped: if even truncation
// fails the on-disk CRCs still confine the damage, at worst costing the
// records after the tear at the next Open.
func (s *Store) rollback() {
	s.logF.Truncate(s.logLen)
	s.logF.Seek(s.logLen, io.SeekStart)
	s.idxF.Truncate(s.idxLen)
	s.idxF.Seek(s.idxLen, io.SeekStart)
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

// Sync flushes both files to stable storage. Appends are otherwise left
// to the OS page cache — recovery tolerates anything short of a flushed
// write — so callers that need a hard durability point (the service's
// graceful shutdown) call Sync explicitly.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.logF.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.idxF.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs and closes the store's files. A closed store rejects
// PutStage and Sync, and every GetStage on it is a miss.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	errSync1 := s.logF.Sync()
	errSync2 := s.idxF.Sync()
	err1 := s.logF.Close()
	err2 := s.idxF.Close()
	releaseDir(s.absDir)
	for _, err := range []error{errSync1, errSync2, err1, err2} {
		if err != nil {
			return fmt.Errorf("store: close: %w", err)
		}
	}
	return nil
}
