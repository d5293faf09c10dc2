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
// callers (sweep engine stats, the msfud /v1/stats endpoint). Every
// counter is local traffic; peer hits are counted by the sweep engine.
type Stats struct {
	// Hits and Misses count final-record Get outcomes since Open.
	Hits, Misses int64
	// Puts counts final records appended since Open (duplicates
	// excluded). Because every cacheable pipeline run persists exactly
	// one final record, this doubles as the "points computed" count.
	Puts int64
	// Records is the live final-record count, recovered entries
	// included.
	Records int
	// StageHits and StageMisses count GetStage outcomes since Open.
	StageHits, StageMisses int64
	// StagePuts counts stage-artifact records appended since Open
	// (duplicates excluded).
	StagePuts int64
	// StageRecords is the live stage-artifact record count; Records +
	// StageRecords is the total the log holds.
	StageRecords int
	// LogBytes is the current size of the record log in bytes, stage
	// and final records together.
	LogBytes int64
}

// storeFile is the slice of *os.File the store drives. Production opens
// real files; fault-injection tests and soak harnesses wrap them in a
// faultFile that fails, stalls or tears writes on demand (see fault.go).
type storeFile interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is a durable, append-only map from Key to an opaque payload,
// with crash-safe recovery (see the package comment for the file format
// and recovery rules). All records are held in memory once opened —
// payloads are the scalar outcome of a pipeline run, a few dozen bytes
// each — so Get never touches the disk. Store is safe for concurrent
// use within one process. It never talks to cluster peers; the sweep
// engine's peer tier admits what peers send through Put.
type Store struct {
	mu     sync.Mutex
	dir    string
	absDir string
	logF   storeFile
	idxF   storeFile
	mem    map[Key][]byte
	logLen int64
	idxLen int64
	closed bool

	hits, misses, puts int64

	// Stage-artifact traffic is counted apart from final records so
	// "records stored" keeps meaning "pipeline points answered" for
	// stats consumers, however many intermediate artifacts ride along.
	stageHits, stageMisses, stagePuts int64
	stageRecs                         int

	// hookMu guards onPut, which is configured once at wiring time but
	// read on every Put.
	hookMu sync.RWMutex
	onPut  func(k Key, payload []byte)
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
	openDirs.mu.Lock()
	if openDirs.dirs[absDir] {
		openDirs.mu.Unlock()
		return nil, fmt.Errorf("store: %s is already open in this process (one writer per directory)", dir)
	}
	openDirs.dirs[absDir] = true
	openDirs.mu.Unlock()
	release := func() {
		openDirs.mu.Lock()
		delete(openDirs.dirs, absDir)
		openDirs.mu.Unlock()
	}
	rawLog, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		release()
		return nil, fmt.Errorf("store: %w", err)
	}
	rawIdx, err := os.OpenFile(filepath.Join(dir, idxName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		rawLog.Close()
		release()
		return nil, fmt.Errorf("store: %w", err)
	}
	var logF, idxF storeFile = rawLog, rawIdx
	if plan != nil {
		logF, idxF = plan.wrap(rawLog), plan.wrap(rawIdx)
	}
	s := &Store{dir: dir, absDir: absDir, logF: logF, idxF: idxF, mem: make(map[Key][]byte)}
	if err := s.recover(); err != nil {
		logF.Close()
		idxF.Close()
		release()
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

	var validEntries int
	var validLog int64
	for off := 0; off+entrySize <= len(idxBytes); off += entrySize {
		e := idxBytes[off : off+entrySize]
		if crc32.ChecksumIEEE(e[:48]) != binary.LittleEndian.Uint32(e[48:52]) {
			break // torn or corrupt index entry
		}
		recOff := int64(binary.LittleEndian.Uint64(e[32:40]))
		recLen := int64(binary.LittleEndian.Uint32(e[40:44]))
		if recOff != validLog || recOff+recLen > int64(len(logBytes)) {
			break // non-contiguous entry, or log truncated under it
		}
		payload := logBytes[recOff : recOff+recLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(e[44:48]) {
			break // payload corrupt
		}
		var k Key
		copy(k[:], e[:32])
		// Copy out of the big read buffer so the log bytes can be freed.
		s.mem[k] = append([]byte(nil), payload...)
		if _, _, isStage := StagePayload(payload); isStage {
			s.stageRecs++
		}
		validEntries++
		validLog = recOff + recLen
	}

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

// Dir reports the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// SetOnPut installs a hook invoked after every fresh Put (duplicates
// and failed appends do not fire it), outside the store's lock. The
// fabric uses it to replicate freshly computed records; the hook must
// treat the payload as read-only.
func (s *Store) SetOnPut(h func(k Key, payload []byte)) {
	s.hookMu.Lock()
	s.onPut = h
	s.hookMu.Unlock()
}

// Get returns the payload stored under k. The boolean reports whether
// the key was present; the returned slice must be treated as read-only.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.mem[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return p, ok
}

// getStage is Get under a stage key: the same map lookup, counted on
// the stage side of the stats ledger so final-record hit rates stay
// meaningful.
func (s *Store) getStage(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.mem[k]
	if ok {
		s.stageHits++
	} else {
		s.stageMisses++
	}
	return p, ok
}

// Put appends a record under k. A key already present is left untouched
// (results are deterministic per key, so the first record is as good as
// any) and Put returns nil. The payload is written to the log first and
// the index entry second, so a crash between the two leaves an orphan
// payload that recovery discards; if either write fails outright (a
// full disk, say), both files are rolled back to their pre-Put lengths
// — a torn index fragment left in place would break the fixed-width
// entry alignment and cost every later record at the next recovery.
func (s *Store) Put(k Key, payload []byte) error {
	fresh, err := s.put(k, payload)
	if err != nil || !fresh {
		return err
	}
	s.hookMu.RLock()
	h := s.onPut
	s.hookMu.RUnlock()
	if h != nil {
		h(k, payload)
	}
	return nil
}

// put appends the record under the store lock and reports whether the
// key was freshly added (false for duplicates).
func (s *Store) put(k Key, payload []byte) (fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if _, ok := s.mem[k]; ok {
		return false, nil
	}
	if _, err := s.logF.Write(payload); err != nil {
		s.rollback()
		return false, fmt.Errorf("store: append log: %w", err)
	}
	var e [entrySize]byte
	copy(e[:32], k[:])
	binary.LittleEndian.PutUint64(e[32:40], uint64(s.logLen))
	binary.LittleEndian.PutUint32(e[40:44], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e[44:48], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(e[48:52], crc32.ChecksumIEEE(e[:48]))
	if _, err := s.idxF.Write(e[:]); err != nil {
		s.rollback()
		return false, fmt.Errorf("store: append index: %w", err)
	}
	s.logLen += int64(len(payload))
	s.idxLen += entrySize
	s.mem[k] = append([]byte(nil), payload...)
	if _, _, isStage := StagePayload(payload); isStage {
		s.stagePuts++
		s.stageRecs++
	} else {
		s.puts++
	}
	return true, nil
}

// rollback restores both files to the last committed record boundary
// after a failed append — partial payloads and torn index fragments are
// truncated away so the next Put (or the next recovery) sees aligned,
// contiguous files. Errors are deliberately dropped: if even truncation
// fails the on-disk CRCs still confine the damage, at worst costing the
// records after the tear at the next Open.
func (s *Store) rollback() {
	s.logF.Truncate(s.logLen)
	s.logF.Seek(s.logLen, io.SeekStart)
	s.idxF.Truncate(s.idxLen)
	s.idxF.Seek(s.idxLen, io.SeekStart)
}

// Len reports the live record count, stage artifacts included. Callers
// asking "how many pipeline points does this store answer" want
// Stats().Records instead.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Records:   len(s.mem) - s.stageRecs,
		StageHits: s.stageHits, StageMisses: s.stageMisses, StagePuts: s.stagePuts,
		StageRecords: s.stageRecs,
		LogBytes:     s.logLen,
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

// Close syncs and closes the store's files. A closed store rejects Put
// and Sync; Get keeps answering from memory.
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
	openDirs.mu.Lock()
	delete(openDirs.dirs, s.absDir)
	openDirs.mu.Unlock()
	for _, err := range []error{errSync1, errSync2, err1, err2} {
		if err != nil {
			return fmt.Errorf("store: close: %w", err)
		}
	}
	return nil
}
