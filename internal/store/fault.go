package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks a deliberately injected fault. Tests and soak
// harnesses match on it (errors.Is) to tell manufactured failures from
// real ones.
var ErrInjected = errors.New("store: injected fault")

// FaultPlan schedules deliberate failures into a store's file
// operations so that recovery behavior is exercised on purpose rather
// than hoped for. Operation counts are 1-based, in issue order, and
// each record append is one write, which makes a plan deterministic for
// a serial writer: "the 7th write fails" names the 7th record. The zero
// value injects nothing.
//
// A plan must not be shared between stores — its counters are the
// fault schedule's clock, and two stores advancing one clock would
// make both schedules meaningless.
type FaultPlan struct {
	// FailWriteOp makes the nth Write fail outright with ErrInjected
	// before touching the disk (0 = never).
	FailWriteOp int64
	// ShortWriteOp makes the nth Write a torn write: the first half of
	// the buffer reaches the file, then ErrInjected (0 = never). This is
	// the mid-op crash shape recovery must confine.
	ShortWriteOp int64
	// FailSyncOp makes the nth Sync fail with ErrInjected after skipping
	// the flush (0 = never).
	FailSyncOp int64
	// StallEveryOp, when > 0, makes every nth Write sleep Stall first —
	// a slow-disk simulation for backpressure and drain testing.
	StallEveryOp int64
	// Stall is the per-stall sleep; ignored unless StallEveryOp > 0.
	Stall time.Duration

	writes atomic.Int64
	syncs  atomic.Int64
}

// ParseFaultPlan parses the comma-separated spec grammar the msfud
// -fault-store flag and BatcherOptions.StoreFaults accept:
//
//	failwrite=N    nth write fails outright
//	shortwrite=N   nth write tears (half lands, then an error)
//	failsync=N     nth sync fails
//	stall=N:DUR    every nth write first sleeps DUR (e.g. 10:2ms)
//
// An empty spec yields an inject-nothing plan.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("store: fault spec %q: want key=value", part)
		}
		switch k {
		case "failwrite", "shortwrite", "failsync":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("store: fault spec %q: want a non-negative op count", part)
			}
			switch k {
			case "failwrite":
				p.FailWriteOp = n
			case "shortwrite":
				p.ShortWriteOp = n
			case "failsync":
				p.FailSyncOp = n
			}
		case "stall":
			nStr, durStr, ok := strings.Cut(v, ":")
			if !ok {
				return nil, fmt.Errorf("store: fault spec %q: want stall=N:DURATION", part)
			}
			n, err := strconv.ParseInt(nStr, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("store: fault spec %q: want a positive op interval", part)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("store: fault spec %q: bad duration", part)
			}
			p.StallEveryOp, p.Stall = n, d
		default:
			return nil, fmt.Errorf("store: fault spec: unknown key %q (want failwrite|shortwrite|failsync|stall)", k)
		}
	}
	return p, nil
}

// wrap returns f with the plan's faults injected into Write and Sync.
// Reads, seeks and truncates pass through untouched: the plan models a
// disk that misbehaves under write load, and recovery itself (which
// only reads and truncates) must stay observable.
func (p *FaultPlan) wrap(f storeFile) storeFile { return &faultFile{inner: f, plan: p} }

// faultFile decorates one store file with its plan's fault schedule.
type faultFile struct {
	inner storeFile
	plan  *FaultPlan
}

func (f *faultFile) Write(b []byte) (int, error) {
	p := f.plan
	n := p.writes.Add(1)
	if p.StallEveryOp > 0 && n%p.StallEveryOp == 0 && p.Stall > 0 {
		time.Sleep(p.Stall)
	}
	if p.FailWriteOp > 0 && n == p.FailWriteOp {
		return 0, fmt.Errorf("write op %d: %w", n, ErrInjected)
	}
	if p.ShortWriteOp > 0 && n == p.ShortWriteOp {
		m, err := f.inner.Write(b[:len(b)/2])
		if err != nil {
			return m, err
		}
		return m, fmt.Errorf("short write op %d (%d of %d bytes): %w", n, m, len(b), ErrInjected)
	}
	return f.inner.Write(b)
}

func (f *faultFile) Sync() error {
	p := f.plan
	n := p.syncs.Add(1)
	if p.FailSyncOp > 0 && n == p.FailSyncOp {
		return fmt.Errorf("sync op %d: %w", n, ErrInjected)
	}
	return f.inner.Sync()
}

func (f *faultFile) Read(b []byte) (int, error)            { return f.inner.Read(b) }
func (f *faultFile) ReadAt(b []byte, o int64) (int, error) { return f.inner.ReadAt(b, o) }
func (f *faultFile) Seek(o int64, w int) (int64, error)    { return f.inner.Seek(o, w) }
func (f *faultFile) Truncate(size int64) error             { return f.inner.Truncate(size) }
func (f *faultFile) Close() error                          { return f.inner.Close() }
