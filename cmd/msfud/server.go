package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magicstate"
	"magicstate/internal/fabric"
	"magicstate/internal/presets"
	"magicstate/internal/sweep"
)

// maxRequestBody bounds every /v1 JSON body. The largest legitimate
// request — a 4096-point explicit batch — fits in a fraction of this;
// anything bigger is a client bug or an attack, rejected before it can
// balloon the decoder.
const maxRequestBody = 1 << 20

// drainRetryAfterSeconds is the Retry-After advertised with 503s while
// the service drains for shutdown: long enough for a restart or a load
// balancer failover, short enough that clients come back.
const drainRetryAfterSeconds = 5

// serverConfig carries the service's robustness budget from flags to
// the handler stack.
type serverConfig struct {
	// MaxParallel caps the sweep workers any single request may use.
	MaxParallel int
	// MaxPoints bounds a single batch request's grid expansion.
	MaxPoints int
	// MaxInflight and MaxQueue size the admission budget: at most
	// MaxInflight pipeline runs execute at once, at most MaxQueue more
	// wait, and the rest answer 429 + Retry-After.
	MaxInflight int
	MaxQueue    int
	// Rate and Burst configure the per-client token bucket (requests
	// per second and bucket size, keyed by remote address). Rate <= 0
	// disables rate limiting.
	Rate  float64
	Burst float64
	// RequestTimeout bounds one synchronous request's total service
	// time (queue wait + compute); zero means no deadline. The deadline
	// propagates as a context through the sweep engine into the
	// pipeline, so timed-out work stops at the next stage boundary.
	RequestTimeout time.Duration
	// Fabric, when non-nil, joins this node to a consistent-hash
	// cluster: the peer endpoints (/v1/record, /v1/fabric/eval,
	// /v1/ping) and the cluster view (/v1/cluster) are registered, and
	// fabric counters join /v1/stats and /metrics.
	Fabric *fabric.Fabric
	// PeerFaults is the TESTING ONLY peer-layer fault plan
	// (-fault-peer): scheduled drops, stalls and corruptions applied to
	// this node's peer-facing endpoints.
	PeerFaults *fabric.PeerFaultPlan
}

// server is the msfud HTTP service: request parsing, admission control,
// job tracking and SSE streaming around one shared magicstate.Batcher,
// so every request — single point, streamed grid, polled job — draws
// from the same memory + disk cache tier, the same singleflight and the
// same compute budget.
type server struct {
	batcher *magicstate.Batcher
	cfg     serverConfig

	adm *admission
	rl  *rateLimiter
	met *metrics

	// draining flips once at shutdown: new compute requests answer 503
	// + Retry-After while in-flight work finishes or is cancelled.
	draining atomic.Bool

	mu        sync.Mutex
	jobs      map[string]*job
	nextJob   int64
	pruneFrom int64 // lowest job number that might still be evictable

	// streamCancels tracks live SSE requests so drain can end them with
	// a terminal frame instead of stalling shutdown behind them.
	streamCancels map[int64]context.CancelFunc
	nextStream    int64

	jobWG sync.WaitGroup
}

// job is one asynchronous /v1/batch evaluation.
type job struct {
	id     string
	cancel context.CancelFunc
	total  int
	done   atomic.Int64

	finished chan struct{} // closed when results/err are set
	results  []resultJSON
	err      error
}

// newServer wires a server around a batcher under the given budget.
func newServer(b *magicstate.Batcher, cfg serverConfig) *server {
	s := &server{
		batcher:       b,
		cfg:           cfg,
		adm:           newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		rl:            newRateLimiter(cfg.Rate, cfg.Burst),
		jobs:          make(map[string]*job),
		streamCancels: make(map[int64]context.CancelFunc),
		pruneFrom:     1,
	}
	s.met = newMetrics(b, s.adm, s.rl, s.jobsInFlight)
	s.met.fabric = cfg.Fabric
	return s
}

// jobsInFlight counts unfinished jobs (the /metrics gauge).
func (s *server) jobsInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		select {
		case <-j.finished:
		default:
			n++
		}
	}
	return n
}

// startDrain begins graceful shutdown: new compute requests answer 503
// + Retry-After, running jobs are cancelled, and live SSE streams get
// their terminal frame. Idempotent.
func (s *server) startDrain() {
	if s.draining.Swap(true) {
		return
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	for _, cancel := range s.streamCancels {
		cancel()
	}
	s.mu.Unlock()
}

// awaitJobs waits (up to the deadline) for job goroutines to finish, so
// the store can be closed without racing in-flight PutReport calls.
// Called during shutdown, after startDrain cancelled the jobs.
func (s *server) awaitJobs(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
}

// drainJobs is the full drain sequence (tests exercise it; main runs
// startDrain and awaitJobs around the HTTP listener shutdown).
func (s *server) drainJobs(timeout time.Duration) {
	s.startDrain()
	s.awaitJobs(timeout)
}

// handler builds the service's route table, each route wrapped in the
// metrics middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", s.handleOptimize))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobCancel))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.met.handleMetrics))
	if s.cfg.Fabric != nil {
		mux.HandleFunc("GET /v1/record/{key}", s.instrument("/v1/record", s.handleRecordGet))
		mux.HandleFunc("PUT /v1/record/{key}", s.instrument("/v1/record", s.handleRecordPut))
		mux.HandleFunc("POST /v1/fabric/eval", s.instrument("/v1/fabric/eval", s.handleFabricEval))
		mux.HandleFunc("GET /v1/ping", s.instrument("/v1/ping", s.handlePing))
		mux.HandleFunc("GET /v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	}
	return mux
}

// statusRecorder captures the status code a handler writes, so the
// metrics middleware can label the request. It forwards Flush for the
// SSE path.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer (SSE streaming needs it).
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a handler with request counting and latency
// accounting. A handler that wrote nothing because its client vanished
// is recorded under the conventional code 499 (client closed request).
func (s *server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		code := rec.status
		if code == 0 {
			if r.Context().Err() != nil {
				code = 499
			} else {
				code = http.StatusOK
			}
		}
		s.met.observe(path, code, time.Since(start))
	}
}

// gate applies the pre-compute admission checks shared by the optimize
// and batch endpoints: 503 while draining, then the per-client rate
// limit. It reports whether the request may proceed (the response has
// been written when not).
func (s *server) gate(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", drainRetryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, "shutting down, retry against another replica")
		return false
	}
	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host
	}
	if ok, retryAfter := s.rl.allow(client, time.Now()); !ok {
		secs := int(retryAfter.Seconds()) + 1
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		w.Header().Set("X-RateLimit-Limit", fmt.Sprintf("%g", s.rl.rate))
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded for %s: %g requests/s, retry in %ds", client, s.rl.rate, secs)
		return false
	}
	return true
}

// rejectQueueFull answers a request the admission budget turned away.
func (s *server) rejectQueueFull(w http.ResponseWriter) {
	secs := s.met.retryAfterSeconds()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	httpError(w, http.StatusTooManyRequests,
		"server at capacity (%d executing, %d queued), retry in %ds",
		s.adm.maxInflight, s.adm.maxQueue, secs)
}

// decodeJSON strictly decodes a bounded request body into v: bodies
// over maxRequestBody, unknown fields (typo'd requests must not be
// silently tolerated), malformed JSON and trailing garbage all answer
// a structured 400. It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusBadRequest, "request body exceeds %d bytes", maxErr.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		httpError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// optimizeRequest is the JSON body of /v1/optimize and one point of a
// /v1/batch points list. Strategy and style names match the msfu CLI
// flags; empty strings pick the same defaults.
type optimizeRequest struct {
	Capacity        int    `json:"capacity"`
	Levels          int    `json:"levels"`
	Reuse           bool   `json:"reuse,omitempty"`
	Strategy        string `json:"strategy,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	Style           string `json:"style,omitempty"`
	Distance        int    `json:"distance,omitempty"`
	DisableBarriers bool   `json:"disable_barriers,omitempty"`
	// Workload/WorkloadSource swap the built-in factory for a frontend
	// circuit ("qasm", "scaffold" or "random"; see Options.Workload);
	// capacity/levels are ignored for workload points. Defects names
	// fabrication-defective mesh tiles in the canonical "x,y;x,y" form.
	Workload       string `json:"workload,omitempty"`
	WorkloadSource string `json:"workload_source,omitempty"`
	Defects        string `json:"defects,omitempty"`
}

// resultJSON is the wire form of magicstate.Result.
type resultJSON struct {
	Strategy           string  `json:"strategy"`
	Latency            int     `json:"latency"`
	Area               int     `json:"area"`
	Volume             float64 `json:"volume"`
	CriticalLatency    int     `json:"critical_latency"`
	CriticalVolume     float64 `json:"critical_volume"`
	PermutationLatency int     `json:"permutation_latency,omitempty"`
}

func resultToJSON(r *magicstate.Result) resultJSON {
	return resultJSON{
		Strategy:           r.Strategy,
		Latency:            r.Latency,
		Area:               r.Area,
		Volume:             r.Volume,
		CriticalLatency:    r.CriticalLatency,
		CriticalVolume:     r.CriticalVolume,
		PermutationLatency: r.PermutationLatency,
	}
}

// point lowers a request to the public API's batch point, rejecting
// unknown names and invalid factory shapes up front so bad requests
// answer 400, not 500.
func (r optimizeRequest) point() (magicstate.BatchPoint, error) {
	var pt magicstate.BatchPoint
	if r.Workload == "" {
		pt.Spec = magicstate.FactorySpec{Capacity: r.Capacity, Levels: r.Levels, Reuse: r.Reuse}
		if r.Levels == 0 {
			pt.Spec.Levels = 1
		}
		if err := pt.Spec.Validate(); err != nil {
			return pt, err
		}
	} else if err := magicstate.ValidateWorkload(r.Workload, r.WorkloadSource, r.Seed); err != nil {
		return pt, err
	}
	if r.Defects != "" {
		if err := magicstate.ValidateDefects(r.Defects); err != nil {
			return pt, err
		}
	}
	pt.Opts = magicstate.Options{
		Seed:            r.Seed,
		DisableBarriers: r.DisableBarriers,
		Distance:        r.Distance,
		Workload:        r.Workload,
		WorkloadSource:  r.WorkloadSource,
		Defects:         r.Defects,
	}
	if r.Style != "" {
		style, err := magicstate.ParseStyle(r.Style)
		if err != nil {
			return pt, err
		}
		pt.Opts.Style = style
	}
	if r.Strategy != "" {
		st, err := magicstate.ParseStrategy(r.Strategy)
		if err != nil {
			return pt, err
		}
		pt.Opts = pt.Opts.WithStrategy(st)
	}
	return pt, nil
}

// batchRequest is the JSON body of /v1/batch: an explicit points list,
// a grid to expand (capacity-major, then strategy, then seed — the
// order the CLIs print), or a named preset suite. Exactly one of the
// three must be given. Parallelism narrows the worker pool for this
// request; it is clamped to the server's -parallel cap.
type batchRequest struct {
	Points      []optimizeRequest `json:"points,omitempty"`
	Grid        *gridSpec         `json:"grid,omitempty"`
	Preset      string            `json:"preset,omitempty"`
	Parallelism int               `json:"parallelism,omitempty"`
}

// gridSpec is the cross-product form of a batch: capacities x
// strategies x seeds at one level/reuse/style setting.
type gridSpec struct {
	Capacities      []int    `json:"capacities"`
	Levels          int      `json:"levels"`
	Strategies      []string `json:"strategies,omitempty"`
	Seeds           []int64  `json:"seeds,omitempty"`
	Reuse           bool     `json:"reuse,omitempty"`
	Style           string   `json:"style,omitempty"`
	Distance        int      `json:"distance,omitempty"`
	DisableBarriers bool     `json:"disable_barriers,omitempty"`
}

// expand flattens a batch request to points.
func (b batchRequest) expand() ([]magicstate.BatchPoint, error) {
	if b.Preset != "" {
		if len(b.Points) > 0 || b.Grid != nil {
			return nil, fmt.Errorf("give preset, points or grid, not a combination")
		}
		p, ok := presets.Get(b.Preset)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q (available: %s)",
				b.Preset, strings.Join(presets.Names(), ", "))
		}
		return p.Points, nil
	}
	reqs := b.Points
	if b.Grid != nil {
		if len(b.Points) > 0 {
			return nil, fmt.Errorf("give either points or grid, not both")
		}
		strategies := b.Grid.Strategies
		if len(strategies) == 0 {
			strategies = []string{""}
		}
		seeds := b.Grid.Seeds
		if len(seeds) == 0 {
			seeds = []int64{0}
		}
		for _, c := range b.Grid.Capacities {
			for _, st := range strategies {
				for _, seed := range seeds {
					reqs = append(reqs, optimizeRequest{
						Capacity: c, Levels: b.Grid.Levels, Reuse: b.Grid.Reuse,
						Strategy: st, Seed: seed, Style: b.Grid.Style,
						Distance: b.Grid.Distance, DisableBarriers: b.Grid.DisableBarriers,
					})
				}
			}
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	points := make([]magicstate.BatchPoint, len(reqs))
	for i, r := range reqs {
		pt, err := r.point()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		points[i] = pt
	}
	return points, nil
}

// httpError answers with a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON answers 200 with v as JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// requestContext derives the compute context for one synchronous
// request: the client's own context, bounded by the server's
// per-request deadline when one is configured.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// handleOptimize evaluates one point synchronously with one Batcher
// call. The request context — with the client's disconnect and the
// server's -request-timeout deadline — carries the admission gate,
// which the point's flight calls only when every cache tier has missed:
// memo hits, requests joining a flight already under way, and disk or
// peer answers never take a slot. A client leaving early gets nothing;
// the shared computation stops once no request waits for it.
func (s *server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r) {
		return
	}
	var req optimizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	pt, err := req.point()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.batcher.OptimizeContext(sweep.WithGate(ctx, s.adm.admit), pt.Spec, pt.Opts)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resultToJSON(res))
	case errors.Is(err, errQueueFull):
		s.rejectQueueFull(w)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.met.retryAfterSeconds()))
		httpError(w, http.StatusGatewayTimeout, "request deadline (%s) exceeded", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client went away; there is nobody to answer. The instrument
		// wrapper records this as code 499.
	default:
		httpError(w, http.StatusInternalServerError, "optimize: %v", err)
	}
}

// handleBatch evaluates a grid. With ?stream=1 (or an Accept header
// asking for text/event-stream) the evaluation runs inside the request
// and progress is streamed as server-sent events; closing the
// connection cancels the remaining points. Otherwise the batch becomes
// a job: the response is 202 with a job id to poll at /v1/jobs/{id}.
// Both paths check the admission budget up front, so a full queue
// answers 429 at submit time, not as a failed job later; each pipeline
// run then takes its turn through admission.admitBatch.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w, r) {
		return
	}
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	points, err := req.expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(points) > s.cfg.MaxPoints {
		httpError(w, http.StatusBadRequest, "batch of %d points exceeds the server cap of %d", len(points), s.cfg.MaxPoints)
		return
	}
	parallel := req.Parallelism
	if parallel <= 0 || parallel > s.cfg.MaxParallel {
		parallel = s.cfg.MaxParallel
	}

	if r.URL.Query().Get("stream") == "1" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamBatch(w, r, points, parallel)
		return
	}

	// Asynchronous job path: check the budget now (429 on a full
	// queue); the job's pipeline runs wait their turn later.
	if err := s.adm.check(); err != nil {
		s.rejectQueueFull(w)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{cancel: cancel, total: len(points), finished: make(chan struct{})}
	s.mu.Lock()
	s.nextJob++
	j.id = fmt.Sprintf("job-%d", s.nextJob)
	s.jobs[j.id] = j
	s.pruneJobsLocked()
	s.mu.Unlock()

	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer cancel()
		results, err := s.batcher.OptimizeBatch(points, magicstate.BatchOptions{
			Parallelism: parallel,
			Context:     sweep.WithGate(ctx, s.adm.admitBatch),
			Progress:    func(done, total int) { j.done.Store(int64(done)) },
		})
		if err != nil {
			j.err = err
			s.met.jobsFailed.Add(1)
		} else {
			j.results = make([]resultJSON, len(results))
			for i, res := range results {
				j.results[i] = resultToJSON(res)
			}
			s.met.jobsCompleted.Add(1)
		}
		close(j.finished)
	}()

	writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id": j.id,
		"total":  j.total,
		"poll":   "/v1/jobs/" + j.id,
	})
}

// streamBatch runs points inside the request and reports progress as
// SSE frames: "progress" events with done/total counts, then one
// "done" event carrying the full result array (or "error" with the
// failure). The request context cancels evaluation when the client
// goes away; a drain cancels it server-side, and either way the stream
// always ends with a terminal frame when the connection is writable —
// an SSE stream is never silently dropped by the server.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, points []magicstate.BatchPoint, parallel int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	// Register with the drain set so shutdown can end this stream with
	// a terminal frame instead of waiting out the whole batch.
	s.mu.Lock()
	s.nextStream++
	streamID := s.nextStream
	s.streamCancels[streamID] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.streamCancels, streamID)
		s.mu.Unlock()
	}()

	// A full queue rejects before any SSE bytes are written; the
	// stream's pipeline runs then wait their turn.
	if err := s.adm.check(); err != nil {
		s.rejectQueueFull(w)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Progress callbacks arrive from worker goroutines (serialized by
	// the engine) while this goroutine owns the ResponseWriter, so
	// frames are written here and handed over via a channel.
	type frame struct {
		event string
		data  any
	}
	frames := make(chan frame, 16)
	go func() {
		defer close(frames)
		results, err := s.batcher.OptimizeBatch(points, magicstate.BatchOptions{
			Parallelism: parallel,
			Context:     sweep.WithGate(ctx, s.adm.admitBatch),
			Progress: func(done, total int) {
				// Never block the worker pool on the client: progress
				// frames are advisory, so when the client reads slower
				// than points complete the backlog is dropped (the next
				// progress frame carries the up-to-date count anyway).
				select {
				case frames <- frame{"progress", map[string]int{"done": done, "total": total}}:
				default:
				}
			},
		})
		// The terminal frame is never dropped — but a client that went
		// away must not pin this goroutine either.
		var final frame
		if err != nil {
			final = frame{"error", map[string]string{"error": err.Error()}}
		} else {
			out := make([]resultJSON, len(results))
			for i, res := range results {
				out[i] = resultToJSON(res)
			}
			final = frame{"done", map[string]any{"results": out}}
		}
		select {
		case frames <- final:
		case <-r.Context().Done():
		}
	}()
	for f := range frames {
		data, err := json.Marshal(f.data)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, data)
		fl.Flush()
	}
}

// maxFinishedJobs bounds how many completed jobs stay queryable; the
// oldest finished jobs are dropped first. Running jobs are never
// evicted.
const maxFinishedJobs = 256

// pruneJobsLocked evicts the lowest-numbered finished jobs beyond the
// retention cap. Callers hold s.mu. Job ids are dense ("job-N") and
// eviction is oldest-first, so the scan starts at pruneFrom — the
// lowest number that might still be live — and advances the cursor
// past ids that are gone, keeping each prune proportional to the live
// job count rather than to every job the server has ever issued.
func (s *server) pruneJobsLocked() {
	finished := 0
	for _, j := range s.jobs {
		select {
		case <-j.finished:
			finished++
		default:
		}
	}
	for n := s.pruneFrom; finished > maxFinishedJobs && n <= s.nextJob; n++ {
		id := fmt.Sprintf("job-%d", n)
		j, ok := s.jobs[id]
		if !ok {
			if n == s.pruneFrom {
				s.pruneFrom++
			}
			continue
		}
		select {
		case <-j.finished:
			delete(s.jobs, id)
			finished--
			if n == s.pruneFrom {
				s.pruneFrom++
			}
		default:
			// Still running: it may finish and become evictable later,
			// so the cursor cannot move past it.
		}
	}
}

// handleJobGet reports a job's progress, and its results once finished.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	resp := map[string]any{
		"job_id": j.id,
		"total":  j.total,
		"done":   j.done.Load(),
	}
	select {
	case <-j.finished:
		if j.err != nil {
			resp["status"] = "failed"
			resp["error"] = j.err.Error()
		} else {
			resp["status"] = "done"
			resp["results"] = j.results
		}
	default:
		resp["status"] = "running"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobCancel cancels a running job. The job stays queryable; its
// status resolves to failed with a cancellation error.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"job_id": j.id, "status": "cancelling"})
}

// handleStats reports the operational counters as JSON. Every number
// here is read from the same sources the /metrics endpoint scrapes —
// the metrics registry and the subsystems it borrows gauges from — so
// the two views cannot drift.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

// statsPayload builds the /v1/stats body; /v1/cluster reuses it for
// this node's own entry so the cluster view and the local view agree.
func (s *server) statsPayload() map[string]any {
	cs := s.batcher.Stats()
	payload := map[string]any{
		"uptime_seconds": int64(time.Since(s.met.started).Seconds()),
		"max_parallel":   s.cfg.MaxParallel,
		"draining":       s.draining.Load(),
		"cache": map[string]any{
			"memory_hits":      cs.MemoryHits,
			"memory_misses":    cs.MemoryMisses,
			"disk_hits":        cs.DiskHits,
			"peer_fetch_hits":  cs.PeerFetchHits,
			"remote_eval_hits": cs.RemoteEvalHits,
			"stored_records":   cs.StoredRecords,
			"stored_bytes":     cs.StoredBytes,
			"checkpoint_dir":   cs.CheckpointDir,
			// Stage-tier traffic: artifacts replayed from the durable
			// store (hits) vs pipeline stages actually executed
			// (computes), per stage.
			"stage_build_hits":     cs.StageBuildHits,
			"stage_build_computes": cs.StageBuildComputes,
			"stage_place_hits":     cs.StagePlaceHits,
			"stage_place_computes": cs.StagePlaceComputes,
			"stage_sim_hits":       cs.StageSimHits,
			"stage_sim_computes":   cs.StageSimComputes,
			"stage_records":        cs.StageRecords,
		},
		"jobs": map[string]any{
			"in_flight": s.jobsInFlight(),
			"completed": s.met.jobsCompleted.Load(),
			"failed":    s.met.jobsFailed.Load(),
		},
		"admission": map[string]any{
			"max_inflight":   s.adm.maxInflight,
			"max_queue":      s.adm.maxQueue,
			"inflight":       s.adm.inflight.Load(),
			"queue_depth":    s.adm.queued.Load(),
			"queue_rejected": s.adm.rejected.Load(),
			"rate_limited":   s.rl.limited.Load(),
		},
		"singleflight": map[string]any{
			"leaders":   s.adm.runs.Load(),
			"shared":    cs.SharedFlights,
			"in_flight": cs.InFlight,
		},
		"requests": s.met.requestCounts(),
		"latency_seconds": map[string]any{
			"p50": s.met.latency.quantile(0.50),
			"p99": s.met.latency.quantile(0.99),
		},
	}
	if s.cfg.Fabric != nil {
		payload["fabric"] = s.cfg.Fabric.Stats()
	}
	return payload
}
