// Package memo is the repository's one singleflight: a concurrency-safe
// memoization table. Keys are arbitrary comparable values (the sweep
// engine keys final reports by core.Config and stage artifacts by the
// stage's scope, core.Stage.Scope — the one place a new Config field
// gets classified), and concurrent callers asking for the same key
// share one computation — a flight — instead of racing to repeat it.
//
// A flight outlives any single caller: it runs on a context that keeps
// its first caller's values but not its cancellation, each caller waits
// on its own context, and the last caller out cancels the flight. Only
// successes are cached; a failed flight is dropped and the next caller
// recomputes.
//
// A cache holds at most its limit of entries and evicts by CLOCK, the
// second-chance approximation of least-recently-used: listed entries sit
// in a ring, a hit sets the entry's reference bit, and admitting a key
// to a full ring advances a hand that clears set bits, skips unfinished
// flights and evicts the first finished entry whose bit is clear. A key
// in steady use stays cached however many one-off keys stream past it.
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
	key    any
	slot   int // index in Cache.ring while listed
	done   chan struct{}
	val    any
	err    error
	ready  bool               // succeeded; Peek and later callers may use val
	ref    bool               // used since the CLOCK hand last passed
	refs   int                // callers still waiting
	cancel context.CancelFunc // nil when the flight runs inline
}

// Cache memoizes computations by comparable key. The zero value is not
// usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[any]*entry
	ring    []*entry // every listed entry at its slot
	free    []int    // ring slots left nil by failed or abandoned flights
	hand    int      // the CLOCK hand, an index into ring
	limit   int
	hits    int64
	misses  int64
	shared  int64 // calls that joined an unfinished flight
	flying  int   // unfinished flights, listed or not
}

// DefaultLimit is the entry count a cache built with New(0) holds at
// most.
const DefaultLimit = 4096

// New returns an empty cache that holds at most limit entries (0 means
// DefaultLimit), evicting by CLOCK past it. Deterministic workloads
// re-derive evicted results at the cost of one recomputation, so
// eviction only bounds memory, never changes answers.
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
		e.ref = true
		if e.ready {
			c.mu.Unlock()
			return e.val, nil
		}
		e.refs++
		c.shared++
		c.mu.Unlock()
		return c.wait(ctx, e)
	}
	e := &entry{key: key, done: make(chan struct{}), refs: 1}
	c.list(e)
	c.misses++
	c.flying++
	if ctx.Done() == nil {
		c.mu.Unlock()
		c.run(ctx, e, fn)
		return e.val, e.err
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e.cancel = cancel
	c.mu.Unlock()
	go c.run(fctx, e, fn)
	return c.wait(ctx, e)
}

// list files e under its key and in a ring slot: a freed slot first,
// then a new one while the ring is short of the limit. Past that the
// CLOCK hand evicts the first finished entry whose reference bit is
// clear, clearing set bits and skipping unfinished flights on its way.
// A whole turn that finds only unfinished flights evicts the one under
// the hand anyway; its waiters keep the entry, and only later callers
// miss it.
func (c *Cache) list(e *entry) {
	c.entries[e.key] = e
	if n := len(c.free); n > 0 {
		e.slot, c.free = c.free[n-1], c.free[:n-1]
		c.ring[e.slot] = e
		return
	}
	if len(c.ring) < c.limit {
		e.slot = len(c.ring)
		c.ring = append(c.ring, e)
		return
	}
	onlyFlights := true
	for step := 0; ; step++ {
		v := c.ring[c.hand]
		switch {
		case step >= len(c.ring) && onlyFlights:
		case !v.ready:
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		case v.ref:
			onlyFlights = false
			v.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, v.key)
		e.slot = c.hand
		c.ring[c.hand] = e
		c.hand = (c.hand + 1) % len(c.ring)
		return
	}
}

// unlist drops e from the table and frees its slot, unless e was
// already evicted or reset away.
func (c *Cache) unlist(e *entry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.ring[e.slot] = nil
		c.free = append(c.free, e.slot)
	}
}

// run executes one flight and publishes its outcome: a success stays
// cached, a failure leaves the table.
func (c *Cache) run(ctx context.Context, e *entry, fn func(context.Context) (any, error)) {
	val, err := fn(ctx)
	c.mu.Lock()
	e.val, e.err, e.ready = val, err, err == nil
	if err != nil {
		c.unlist(e)
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
func (c *Cache) wait(ctx context.Context, e *entry) (any, error) {
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
		c.unlist(e)
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
	e.ref = true
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
