package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// errQueueFull reports that the admission waiting room is at capacity;
// handlers translate it to 429 + Retry-After.
var errQueueFull = errors.New("msfud: admission queue full")

// admission is the service's compute budget: at most maxInflight
// pipeline runs execute at once, at most maxQueue more wait for a slot,
// and everything beyond that is rejected immediately so load sheds at
// the door instead of accumulating as unbounded goroutines. A slot is
// taken through a sweep gate (admit, admitBatch) only when a point's
// flight must run the pipeline: cache hits and requests joining a
// flight cost microseconds and never pay for a ticket.
type admission struct {
	maxInflight int
	maxQueue    int
	slots       chan struct{}
	queued      atomic.Int64
	inflight    atomic.Int64
	rejected    atomic.Int64
	runs        atomic.Int64 // pipeline runs admitted by the gates
}

// newAdmission sizes the budget. Non-positive maxInflight falls back to
// 1; negative maxQueue means an empty waiting room (admit or reject,
// never wait).
func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight <= 0 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		slots:       make(chan struct{}, maxInflight),
	}
}

// reservation is a claim on the admission budget: either a held
// execution slot or a place in the waiting room, converted to a slot by
// wait. Exactly one of wait or abandon must be called.
type reservation struct {
	a        *admission
	slotHeld bool
}

// reserve claims budget without blocking: an execution slot when one is
// free, a queue place otherwise, errQueueFull when the waiting room is
// at capacity.
func (a *admission) reserve() (*reservation, error) {
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return &reservation{a: a, slotHeld: true}, nil
	default:
	}
	if a.queued.Add(1) > int64(a.maxQueue) {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return nil, errQueueFull
	}
	return &reservation{a: a}, nil
}

// wait blocks until the reservation holds an execution slot or ctx
// ends, returning the release func the holder must call exactly once.
func (r *reservation) wait(ctx context.Context) (release func(), err error) {
	a := r.a
	if !r.slotHeld {
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
			a.inflight.Add(1)
			r.slotHeld = true
		case <-ctx.Done():
			a.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			a.inflight.Add(-1)
			<-a.slots
		})
	}, nil
}

// abandon gives up a reservation that was never waited on.
func (r *reservation) abandon() {
	if r.slotHeld {
		r.a.inflight.Add(-1)
		<-r.a.slots
	} else {
		r.a.queued.Add(-1)
	}
}

// acquire is reserve+wait for synchronous callers.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	r, err := a.reserve()
	if err != nil {
		return nil, err
	}
	return r.wait(ctx)
}

// check reports errQueueFull when the budget has no room right now, so
// a batch answers 429 at submit time. It claims nothing: the batch's
// runs take their turn through admitBatch.
func (a *admission) check() error {
	r, err := a.reserve()
	if err == nil {
		r.abandon()
	}
	return err
}

// admit is the sweep gate of single-point requests: the flight that
// runs a point's pipeline takes one execution slot, or one waiting
// place (errQueueFull past both), for the length of the run.
func (a *admission) admit(ctx context.Context) (func(), error) {
	release, err := a.acquire(ctx)
	if err == nil {
		a.runs.Add(1)
	}
	return release, err
}

// admitBatch is the sweep gate of batch runs (async jobs, SSE streams).
// Like admit it holds a slot only while a pipeline runs, so a batch
// never sits on one while it waits for another request's flight, which
// may be queued for that very slot. The batch passed check at submit
// time, so its runs wait without a queue cap rather than fail it.
func (a *admission) admitBatch(ctx context.Context) (func(), error) {
	a.queued.Add(1)
	release, err := (&reservation{a: a}).wait(ctx)
	if err == nil {
		a.runs.Add(1)
	}
	return release, err
}

// rateLimiter is a per-client token bucket keyed by remote address.
// Each client accrues rate tokens per second up to burst; a request
// spends one. The zero rate disables limiting entirely.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	clients map[string]*bucket
	limited atomic.Int64
}

// bucket is one client's token balance at a refill instant.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedClients bounds the limiter's memory: past it, buckets that
// have fully refilled (idle clients) are dropped — rejoining at full
// burst is exactly what a fresh bucket grants anyway.
const maxTrackedClients = 4096

// newRateLimiter builds a limiter granting rate tokens/second with the
// given burst (non-positive burst defaults to max(1, rate)). rate <= 0
// disables limiting: allow always succeeds.
func newRateLimiter(rate, burst float64) *rateLimiter {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &rateLimiter{rate: rate, burst: burst, clients: make(map[string]*bucket)}
}

// allow spends one token for client, reporting whether the request may
// proceed and, when it may not, how long until a token accrues (the
// Retry-After the handler advertises).
func (rl *rateLimiter) allow(client string, now time.Time) (ok bool, retryAfter time.Duration) {
	if rl.rate <= 0 {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, present := rl.clients[client]
	if !present {
		if len(rl.clients) >= maxTrackedClients {
			rl.pruneLocked(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.clients[client] = b
	}
	b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	rl.limited.Add(1)
	need := (1 - b.tokens) / rl.rate
	return false, time.Duration(need * float64(time.Second))
}

// pruneLocked drops buckets that have refilled to burst — clients idle
// long enough that forgetting them is observationally free.
func (rl *rateLimiter) pruneLocked(now time.Time) {
	for c, b := range rl.clients {
		if b.tokens+now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.clients, c)
		}
	}
}
