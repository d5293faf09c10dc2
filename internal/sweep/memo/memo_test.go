package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

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

func TestDoCachesErrors(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do(1, func() (any, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
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
	if c.Len() > 2 {
		t.Fatalf("len = %d, want <= limit 2", c.Len())
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

func TestReset(t *testing.T) {
	c := New(0)
	c.Do("a", func() (any, error) { return 1, nil })
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len after reset = %d", c.Len())
	}
}

// TestDoDropsContextErrors: a computation that fails with a context
// error must not poison the cache — context errors describe the caller
// that asked, not the point itself, so the next caller recomputes.
func TestDoDropsContextErrors(t *testing.T) {
	c := New(0)
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
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
		c.Reset()
	}
	// A wrapped context error is still a context error.
	wrapped := fmt.Errorf("stage 3: %w", context.Canceled)
	c.Do("w", func() (any, error) { return nil, wrapped })
	recomputed := false
	c.Do("w", func() (any, error) { recomputed = true; return 1, nil })
	if !recomputed {
		t.Fatal("wrapped context error was cached")
	}
}

// TestPeek: Peek answers only completed entries — never starting a
// computation, never waiting on one in flight. An answered Peek counts
// as a hit; an unanswered one moves no counter.
func TestPeek(t *testing.T) {
	c := New(0)
	if _, _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented an entry")
	}
	// An in-flight entry is invisible to Peek.
	started := make(chan struct{})
	unblock := make(chan struct{})
	go c.Do("slow", func() (any, error) { close(started); <-unblock; return 1, nil })
	<-started
	if _, _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek returned an in-flight entry")
	}
	close(unblock)

	c.Do("done", func() (any, error) { return 7, nil })
	hits0, misses0 := c.Stats()
	if _, _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented an entry")
	}
	if hits, misses := c.Stats(); hits != hits0 || misses != misses0 {
		t.Fatal("an unanswered Peek moved the hit/miss counters")
	}
	v, err, ok := c.Peek("done")
	if !ok || err != nil || v.(int) != 7 {
		t.Fatalf("Peek(done) = %v, %v, %v; want 7, nil, true", v, err, ok)
	}
	if hits, misses := c.Stats(); hits != hits0+1 || misses != misses0 {
		t.Fatalf("answered Peek: hits/misses %d/%d, want %d/%d", hits, misses, hits0+1, misses0)
	}
	// Cached plain errors are peekable too (the caller decides).
	boom := errors.New("boom")
	c.Do("bad", func() (any, error) { return nil, boom })
	if _, err, ok := c.Peek("bad"); !ok || !errors.Is(err, boom) {
		t.Fatalf("Peek(bad) = %v, %v; want boom, true", err, ok)
	}
}
