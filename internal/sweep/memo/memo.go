// Package memo is the sweep engine's result cache: a concurrency-safe
// memoization table with singleflight semantics. Keys are arbitrary
// comparable values (the engine keys final reports by core.Config and
// stage artifacts by their stage-scoped content key), and concurrent
// callers asking for the same key share one computation instead of
// racing to repeat it.
//
// The package sits below every layer that needs caching — it depends on
// nothing but the standard library, so packages beneath the engine
// (internal/stitch memoizes its block embeddings) can route repeated work
// through it without an import cycle.
package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// entry is one cached computation. The sync.Once gives singleflight
// semantics: the first caller runs fn, concurrent callers for the same
// key block until the value is ready, later callers read it for free.
type entry struct {
	once  sync.Once
	ready atomic.Bool // set after once ran; gates Peek
	val   any
	err   error
}

// Cache memoizes computations by comparable key. The zero value is not
// usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[any]*entry
	limit   int
	hits    int64
	misses  int64
}

// DefaultLimit is the entry count at which a cache built with New(0)
// resets itself.
const DefaultLimit = 4096

// New returns an empty cache that coarsely resets once it holds limit
// entries (0 means DefaultLimit). Deterministic workloads re-derive
// evicted results at the cost of one recomputation, so the reset only
// bounds memory, never changes answers.
func New(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Cache{entries: make(map[any]*entry), limit: limit}
}

// Do returns the memoized result for key, running fn exactly once per
// key (per cache generation). fn's error is cached too: deterministic
// failures are as stable as deterministic successes. The one exception
// is context cancellation — a fn that fails with context.Canceled or
// context.DeadlineExceeded reflects its first caller's deadline, not
// the key, so the entry is dropped and the next caller recomputes.
func (c *Cache) Do(key any, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= c.limit {
			c.entries = make(map[any]*entry)
		}
		e = &entry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.val, e.err = fn()
		e.ready.Store(true)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		c.mu.Lock()
		// Only this generation's entry is dropped; a concurrent Reset or
		// a fresh recompute under the same key must not be clobbered.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// Peek returns the memoized result for key only if a computation has
// already completed, without ever running (or waiting for) one. It is
// the cache-hit fast path for callers that must not block — the msfud
// service answers cached points even when its admission queue is full.
// A Peek that returns a completed entry counts as a hit; one that finds
// nothing counts as nothing, because the caller's fallback (a Do, or a
// lower tier) does its own accounting.
func (c *Cache) Peek(key any) (val any, err error, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, present := c.entries[key]
	if !present || !e.ready.Load() {
		return nil, nil, false
	}
	c.hits++
	return e.val, e.err, true
}

// Stats reports hits (Do calls that found an existing entry, plus Peek
// calls answered from a completed one) and misses (Do calls that created
// an entry).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every entry (the counters survive).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[any]*entry)
}
