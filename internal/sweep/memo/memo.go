// Package memo is the repository's one singleflight: a concurrency-safe
// memoization table. Keys are arbitrary comparable values (the sweep
// engine keys final reports by core.Config and stage artifacts by their
// stage-scoped content key), and concurrent callers asking for the same
// key share one computation — a flight — instead of racing to repeat it.
//
// A flight outlives any single caller: it runs on a context that keeps
// its first caller's values but not its cancellation, each caller waits
// on its own context, and the last caller out cancels the flight. Only
// successes are cached; a failed flight is dropped and the next caller
// recomputes.
//
// The package sits below every layer that needs caching — it depends on
// nothing but the standard library, so packages beneath the engine
// (internal/stitch memoizes its block embeddings) can route repeated work
// through it without an import cycle.
package memo

import (
	"context"
	"sync"
)

// entry is one flight and, once it succeeds, its cached value. Fields
// other than done are guarded by Cache.mu; val and err are read-only
// once done is closed.
type entry struct {
	done   chan struct{}
	val    any
	err    error
	ready  bool               // succeeded; Peek and later callers may use val
	refs   int                // callers still waiting
	cancel context.CancelFunc // nil when the flight runs inline
}

// Cache memoizes computations by comparable key. The zero value is not
// usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[any]*entry
	limit   int
	hits    int64
	misses  int64
	shared  int64 // calls that joined an unfinished flight
	flying  int   // unfinished flights, listed or not
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

// Do is DoContext for a caller that never leaves early.
func (c *Cache) Do(key any, fn func() (any, error)) (any, error) {
	return c.DoContext(context.Background(), key, func(context.Context) (any, error) { return fn() })
}

// DoContext returns the memoized result for key, starting fn only when
// no flight for key has succeeded or is under way. fn runs on
// context.WithCancel(context.WithoutCancel(ctx)) of the caller that
// starts the flight. Each caller waits on its own ctx and returns
// ctx.Err() when it ends first; the flight carries on for the others,
// and its context is cancelled once every caller has left. When ctx
// can never end (ctx.Done() is nil) fn runs inline on the caller's
// goroutine and context, so such callers start no goroutines.
func (c *Cache) DoContext(ctx context.Context, key any, fn func(context.Context) (any, error)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.ready {
			c.mu.Unlock()
			return e.val, nil
		}
		e.refs++
		c.shared++
		c.mu.Unlock()
		return c.wait(ctx, key, e)
	}
	if len(c.entries) >= c.limit {
		c.entries = make(map[any]*entry)
	}
	e := &entry{done: make(chan struct{}), refs: 1}
	c.entries[key] = e
	c.misses++
	c.flying++
	if ctx.Done() == nil {
		c.mu.Unlock()
		c.run(ctx, key, e, fn)
		return e.val, e.err
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e.cancel = cancel
	c.mu.Unlock()
	go c.run(fctx, key, e, fn)
	return c.wait(ctx, key, e)
}

// run executes one flight and publishes its outcome: a success stays
// cached, a failure leaves the table.
func (c *Cache) run(ctx context.Context, key any, e *entry, fn func(context.Context) (any, error)) {
	val, err := fn(ctx)
	c.mu.Lock()
	e.val, e.err, e.ready = val, err, err == nil
	if err != nil && c.entries[key] == e {
		delete(c.entries, key)
	}
	c.flying--
	close(e.done)
	c.mu.Unlock()
	if e.cancel != nil {
		e.cancel()
	}
}

// wait blocks until e's flight finishes or ctx ends. The last caller to
// leave an unfinished flight cancels it and unlists it, so a later
// caller starts afresh instead of joining a flight nobody wants.
func (c *Cache) wait(ctx context.Context, key any, e *entry) (any, error) {
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-e.done:
		return e.val, e.err // finished while we were leaving
	default:
	}
	if e.refs--; e.refs == 0 {
		e.cancel()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	}
	return nil, ctx.Err()
}

// Peek returns the memoized result for key only if a flight has already
// succeeded, without ever starting (or waiting for) one. It is the
// cache-hit fast path for callers that must not block. A Peek that
// returns a value counts as a hit; one that finds nothing counts as
// nothing, because the caller's fallback (a Do, or a lower tier) does
// its own accounting.
func (c *Cache) Peek(key any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.ready {
		return nil, false
	}
	c.hits++
	return e.val, true
}

// Stats reports hits (calls that found a cached result or joined an
// unfinished flight, plus answered Peeks) and misses (calls that
// started a flight).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Flights reports the calls that joined an unfinished flight (a subset
// of hits) and the flights not yet finished.
func (c *Cache) Flights() (shared int64, inFlight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared, c.flying
}

// Len reports the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every entry (the counters survive; callers already
// waiting on a flight still get its result).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[any]*entry)
}
