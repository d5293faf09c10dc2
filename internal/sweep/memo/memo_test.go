package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// live reads the cache's entry count under its lock.
func live(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func TestDoMemoizes(t *testing.T) {
	c := New(0)
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", fn)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

// TestDoDropsErrors: only successes are cached. A failed flight leaves
// the table, so the next caller recomputes instead of inheriting it.
func TestDoDropsErrors(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do(1, func() (any, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (a failure must not be cached)", calls)
	}
	if live(c) != 0 {
		t.Fatalf("len = %d after failed flights, want 0", live(c))
	}
}

func TestSingleflight(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("shared", func() (any, error) {
				calls.Add(1)
				return "v", nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under contention, want 1", n)
	}
}

func TestLimitResets(t *testing.T) {
	c := New(2)
	for i := 0; i < 5; i++ {
		if _, err := c.Do(i, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if live(c) > 2 {
		t.Fatalf("len = %d, want <= limit 2", live(c))
	}
	// Evicted keys recompute and still return the right value.
	v, err := c.Do(0, func() (any, error) { return 100, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 100 {
		t.Fatalf("recomputed value = %v", v)
	}
}

// TestClockKeepsHotKeys: keys in steady use keep hitting while a
// stream of one-off keys many times the limit passes through. A cache
// that reset to empty at its limit would recompute them after every
// reset.
func TestClockKeepsHotKeys(t *testing.T) {
	const limit, hot = 64, 4
	c := New(limit)
	hotCalls := 0
	for i := 0; i < 20*limit; i++ {
		if _, err := c.Do(fmt.Sprint("cold", i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hot; h++ {
			if _, err := c.Do(h, func() (any, error) { hotCalls++; return h, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if live(c) > limit {
			t.Fatalf("len = %d past limit %d", live(c), limit)
		}
	}
	if hotCalls != hot {
		t.Fatalf("hot keys computed %d times, want %d (once each)", hotCalls, hot)
	}
}

// TestClockReusesFreedSlots: a failed flight frees its slot, and the
// next key takes it instead of evicting a cached entry.
func TestClockReusesFreedSlots(t *testing.T) {
	c := New(2)
	c.Do("a", func() (any, error) { return 1, nil })
	c.Do("bad", func() (any, error) { return nil, errors.New("boom") })
	c.Do("b", func() (any, error) { return 2, nil })
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("a cached entry was evicted while a freed slot was open")
	}
	if live(c) != 2 {
		t.Fatalf("len = %d, want 2", live(c))
	}
}

// blockFlight starts an unfinished flight for key on its own goroutine
// and returns once it runs; closing release lets it return v.
func blockFlight(t *testing.T, c *Cache, key any, v any, release <-chan struct{}) <-chan any {
	t.Helper()
	started := make(chan struct{})
	out := make(chan any, 1)
	go func() {
		got, _ := c.DoContext(context.Background(), key, func(context.Context) (any, error) {
			close(started)
			<-release
			return v, nil
		})
		out <- got
	}()
	<-started
	return out
}

// TestClockSkipsUnfinishedFlights: the hand never evicts a flight while
// finished entries remain, so a caller arriving after a stream of cold
// keys still joins the flight instead of starting another.
func TestClockSkipsUnfinishedFlights(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	leader := blockFlight(t, c, "flight", 7, release)
	for i := 0; i < 40; i++ {
		c.Do(i, func() (any, error) { return i, nil })
	}
	joined := make(chan any, 1)
	go func() {
		v, _ := c.DoContext(context.Background(), "flight", func(context.Context) (any, error) {
			return nil, errors.New("flight was evicted: a second computation started")
		})
		joined <- v
	}()
	awaitShared(t, c, 1)
	close(release)
	if v, w := <-leader, <-joined; v != 7 || w != 7 {
		t.Fatalf("leader, joiner got %v, %v; want 7, 7", v, w)
	}
}

// TestClockAdmitsPastAllFlights: when every entry is an unfinished
// flight, a new key is still admitted by evicting one of them, and the
// evicted flight's callers still get its result.
func TestClockAdmitsPastAllFlights(t *testing.T) {
	c := New(2)
	release := make(chan struct{})
	a := blockFlight(t, c, "a", 1, release)
	b := blockFlight(t, c, "b", 2, release)
	if v, err := c.Do("new", func() (any, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("Do(new) = %v, %v; want 3", v, err)
	}
	if live(c) != 2 {
		t.Fatalf("len = %d, want 2", live(c))
	}
	close(release)
	if va, vb := <-a, <-b; va != 1 || vb != 2 {
		t.Fatalf("evicted flights returned %v, %v; want 1, 2", va, vb)
	}
	if _, ok := c.Peek("new"); !ok {
		t.Fatal("the admitted key is not cached")
	}
}

// TestDoDropsContextErrors: a computation that fails with a context
// error must not poison the cache — context errors describe the caller
// that asked, not the point itself, so the next caller recomputes.
func TestDoDropsContextErrors(t *testing.T) {
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		c := New(0)
		calls := 0
		if _, err := c.Do("k", func() (any, error) { calls++; return nil, ctxErr }); !errors.Is(err, ctxErr) {
			t.Fatalf("Do = %v, want %v", err, ctxErr)
		}
		v, err := c.Do("k", func() (any, error) { calls++; return 42, nil })
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do after %v = %v, %v; want 42", ctxErr, v, err)
		}
		if calls != 2 {
			t.Fatalf("calls = %d, want 2 (the %v entry must have been dropped)", calls, ctxErr)
		}
	}
	// A wrapped context error is still a context error.
	c := New(0)
	wrapped := fmt.Errorf("stage 3: %w", context.Canceled)
	c.Do("w", func() (any, error) { return nil, wrapped })
	recomputed := false
	c.Do("w", func() (any, error) { recomputed = true; return 1, nil })
	if !recomputed {
		t.Fatal("wrapped context error was cached")
	}
}

// TestPeek: Peek answers only successful flights — never starting a
// computation, never waiting on one in flight. An answered Peek counts
// as a hit; an unanswered one moves no counter.
func TestPeek(t *testing.T) {
	c := New(0)
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented an entry")
	}
	// An in-flight entry is invisible to Peek.
	started := make(chan struct{})
	unblock := make(chan struct{})
	go c.Do("slow", func() (any, error) { close(started); <-unblock; return 1, nil })
	<-started
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek returned an in-flight entry")
	}
	close(unblock)

	c.Do("done", func() (any, error) { return 7, nil })
	hits0, misses0 := c.Stats()
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented an entry")
	}
	if hits, misses := c.Stats(); hits != hits0 || misses != misses0 {
		t.Fatal("an unanswered Peek moved the hit/miss counters")
	}
	v, ok := c.Peek("done")
	if !ok || v.(int) != 7 {
		t.Fatalf("Peek(done) = %v, %v; want 7, true", v, ok)
	}
	if hits, misses := c.Stats(); hits != hits0+1 || misses != misses0 {
		t.Fatalf("answered Peek: hits/misses %d/%d, want %d/%d", hits, misses, hits0+1, misses0)
	}
	// Failed flights are never cached, so never peekable.
	c.Do("bad", func() (any, error) { return nil, errors.New("boom") })
	if _, ok := c.Peek("bad"); ok {
		t.Fatal("Peek served a failed flight")
	}
}

// awaitShared polls until n calls have joined an unfinished flight.
func awaitShared(t *testing.T, c *Cache, n int64) {
	t.Helper()
	for {
		if shared, _ := c.Flights(); shared >= n {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestFlightShares: a second caller joins the first caller's flight
// instead of starting its own, both get the one result, and the flight
// counters show one miss, one shared join and nothing left in flight.
func TestFlightShares(t *testing.T) {
	c := New(0)
	unblock := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan any, 2)
	go func() {
		v, _ := c.DoContext(ctx, "k", func(context.Context) (any, error) { <-unblock; return 7, nil })
		results <- v
	}()
	for live(c) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	go func() {
		v, _ := c.DoContext(ctx, "k", func(context.Context) (any, error) {
			t.Error("second caller started its own computation")
			return nil, nil
		})
		results <- v
	}()
	awaitShared(t, c, 1)
	close(unblock)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 7 {
			t.Fatalf("caller got %v, want the shared 7", v)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
	if shared, inFlight := c.Flights(); shared != 1 || inFlight != 0 {
		t.Fatalf("shared, in flight = %d, %d; want 1, 0", shared, inFlight)
	}
}

// TestFlightLoneCallerCancelStopsComputation: when the only caller
// leaves, the flight's context is cancelled, and the point is not
// cached — the next caller starts a fresh flight.
func TestFlightLoneCallerCancelStopsComputation(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	stopped := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, "k", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			stopped <- fctx.Err()
			return nil, fctx.Err()
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller got %v, want its own cancellation", err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight context ended with %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("last caller left but the computation was never cancelled")
	}
	v, err := c.Do("k", func() (any, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("Do after abandoned flight = %v, %v; want a fresh 1", v, err)
	}
}

// TestFlightSurvivesOneDisconnect: a caller that joins and then leaves
// gets its own cancellation, while the flight carries on for the
// caller still waiting.
func TestFlightSurvivesOneDisconnect(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	unblock := make(chan struct{})
	fn := func(fctx context.Context) (any, error) {
		close(started)
		select {
		case <-unblock:
			return 3, nil
		case <-fctx.Done():
			return nil, fctx.Err()
		}
	}
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	survivor := make(chan any, 1)
	go func() {
		v, _ := c.DoContext(live, "k", fn)
		survivor <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	joinGone := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, "k", fn)
		joinGone <- err
	}()
	awaitShared(t, c, 1)
	cancel()
	if err := <-joinGone; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected joiner got %v, want Canceled", err)
	}
	close(unblock)
	if v := <-survivor; v != 3 {
		t.Fatalf("surviving caller got %v, want the shared result", v)
	}
}

// TestWaiterOutlivesCancelledLeader: the caller that started a flight
// leaves; a waiter whose own context is still live gets the result,
// not the leader's cancellation.
func TestWaiterOutlivesCancelledLeader(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	unblock := make(chan struct{})
	leader, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.DoContext(leader, "k", func(fctx context.Context) (any, error) {
			close(started)
			select {
			case <-unblock:
				return 42, nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		leaderErr <- err
	}()
	<-started
	waiter := make(chan any, 1)
	go func() {
		v, err := c.DoContext(context.Background(), "k", func(context.Context) (any, error) {
			return nil, errors.New("waiter started its own computation")
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	awaitShared(t, c, 1)
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want its own cancellation", err)
	}
	close(unblock)
	if v := <-waiter; v != 42 {
		t.Fatalf("waiter got %v, want 42", v)
	}
	if v, ok := c.Peek("k"); !ok || v != 42 {
		t.Fatalf("Peek = %v, %v; the surviving flight's result must be cached", v, ok)
	}
}

// TestFlightKeepsContextValues: the flight context drops the leader's
// cancellation but keeps its values.
func TestFlightKeepsContextValues(t *testing.T) {
	type key struct{}
	c := New(0)
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "mark"))
	defer cancel()
	v, err := c.DoContext(ctx, "k", func(fctx context.Context) (any, error) { return fctx.Value(key{}), nil })
	if err != nil || v != "mark" {
		t.Fatalf("flight saw value %v, %v; want mark", v, err)
	}
}

// TestDoRunsInline: a caller whose context can never end runs fn on its
// own goroutine, under its own context.
func TestDoRunsInline(t *testing.T) {
	type key struct{}
	c := New(0)
	ctx := context.WithValue(context.Background(), key{}, 1)
	var inner context.Context
	if _, err := c.DoContext(ctx, "k", func(fctx context.Context) (any, error) { inner = fctx; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if inner != ctx {
		t.Fatal("a never-ending caller's flight did not run inline on its context")
	}
}

// TestFlightStress: many callers over a few keys, half of them leaving
// early. Every caller that stays gets its key's value, every caller
// that leaves gets its own cancellation, and every flight ends.
func TestFlightStress(t *testing.T) {
	c := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := i % 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%2 == 1 {
				go cancel()
			}
			v, err := c.DoContext(ctx, key, func(fctx context.Context) (any, error) {
				select {
				case <-time.After(time.Millisecond):
					return key * 10, nil
				case <-fctx.Done():
					return nil, fctx.Err()
				}
			})
			switch {
			case err == nil && v != key*10:
				t.Errorf("caller %d got %v, want %d", i, v, key*10)
			case err != nil && (i%2 == 0 || !errors.Is(err, context.Canceled)):
				t.Errorf("caller %d failed with %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, inFlight := c.Flights(); inFlight != 0; _, inFlight = c.Flights() {
		time.Sleep(50 * time.Microsecond)
	}
}
