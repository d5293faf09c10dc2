package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magicstate"
)

// metrics is the service's single observability registry: every counter
// behind GET /metrics (Prometheus text exposition) and every counter in
// GET /v1/stats reads from here, so the two surfaces cannot drift. The
// registry owns request/latency accounting and borrows live gauges from
// the subsystems that own them (admission budget, rate limiter, cache
// tier and its singleflight) at scrape time.
type metrics struct {
	started time.Time

	mu       sync.Mutex
	requests map[reqSeries]*int64

	latency *histogram // accepted-request service time, seconds

	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64

	// ewmaMicros tracks a smoothed compute-request service time; the
	// 429 Retry-After estimate derives from it.
	ewmaMicros atomic.Int64

	// Live sources, wired once at construction.
	batcher      *magicstate.Batcher
	adm          *admission
	rl           *rateLimiter
	jobsInFlight func() int
}

// reqSeries is one requests_total series: route pattern x status code.
type reqSeries struct {
	path string
	code int
}

func newMetrics(b *magicstate.Batcher, adm *admission, rl *rateLimiter, jobsInFlight func() int) *metrics {
	return &metrics{
		started:      time.Now(),
		requests:     make(map[reqSeries]*int64),
		latency:      newHistogram(),
		batcher:      b,
		adm:          adm,
		rl:           rl,
		jobsInFlight: jobsInFlight,
	}
}

// observe records one finished request: its series count always, its
// latency only when the request was an accepted and served (2xx)
// compute request — the latency SLO is over accepted compute, and
// folding in rejections' or metadata reads' microsecond turnarounds
// would flatter the percentiles.
func (m *metrics) observe(path string, code int, d time.Duration) {
	m.mu.Lock()
	c, ok := m.requests[reqSeries{path, code}]
	if !ok {
		c = new(int64)
		m.requests[reqSeries{path, code}] = c
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
	compute := path == "/v1/optimize" || path == "/v1/batch"
	if compute && code >= 200 && code < 300 {
		m.latency.observe(d.Seconds())
		// EWMA with alpha 1/8, in integer microseconds.
		for {
			old := m.ewmaMicros.Load()
			nw := old + (d.Microseconds()-old)/8
			if old == 0 {
				nw = d.Microseconds()
			}
			if m.ewmaMicros.CompareAndSwap(old, nw) {
				break
			}
		}
	}
}

// retryAfterSeconds estimates how long a rejected caller should wait
// for the queue to turn over: the smoothed service time times the queue
// they would sit behind, clamped to [1s, 30s].
func (m *metrics) retryAfterSeconds() int {
	avg := time.Duration(m.ewmaMicros.Load()) * time.Microsecond
	depth := m.adm.queued.Load() + m.adm.inflight.Load()
	est := int(avg.Seconds() * float64(depth) / float64(m.adm.maxInflight))
	if est < 1 {
		return 1
	}
	if est > 30 {
		return 30
	}
	return est
}

// requestCounts snapshots requests_total keyed by "code" strings summed
// over paths, the shape /v1/stats reports.
func (m *metrics) requestCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64)
	for s, c := range m.requests {
		out[fmt.Sprintf("%d", s.code)] += atomic.LoadInt64(c)
	}
	return out
}

// handleMetrics serves the Prometheus text exposition format, hand
// rendered — the repo takes no dependencies, and the format is lines.
func (m *metrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP msfud_uptime_seconds Seconds since the service started.\n# TYPE msfud_uptime_seconds gauge\nmsfud_uptime_seconds %d\n", int64(time.Since(m.started).Seconds()))

	// requests_total, in sorted series order for stable scrapes.
	fmt.Fprintf(w, "# HELP msfud_requests_total Requests finished, by route and status code (499 = client went away).\n# TYPE msfud_requests_total counter\n")
	m.mu.Lock()
	series := make([]reqSeries, 0, len(m.requests))
	for s := range m.requests {
		series = append(series, s)
	}
	m.mu.Unlock()
	sort.Slice(series, func(i, j int) bool {
		if series[i].path != series[j].path {
			return series[i].path < series[j].path
		}
		return series[i].code < series[j].code
	})
	for _, s := range series {
		m.mu.Lock()
		c := m.requests[s]
		m.mu.Unlock()
		fmt.Fprintf(w, "msfud_requests_total{path=%q,code=\"%d\"} %d\n", s.path, s.code, atomic.LoadInt64(c))
	}

	fmt.Fprintf(w, "# HELP msfud_queue_depth Pipeline runs waiting for an execution slot.\n# TYPE msfud_queue_depth gauge\nmsfud_queue_depth %d\n", m.adm.queued.Load())
	fmt.Fprintf(w, "# HELP msfud_inflight Pipeline runs holding an execution slot.\n# TYPE msfud_inflight gauge\nmsfud_inflight %d\n", m.adm.inflight.Load())
	fmt.Fprintf(w, "# HELP msfud_queue_rejected_total Requests rejected because the admission queue was full.\n# TYPE msfud_queue_rejected_total counter\nmsfud_queue_rejected_total %d\n", m.adm.rejected.Load())
	fmt.Fprintf(w, "# HELP msfud_rate_limited_total Requests rejected by the per-client token bucket.\n# TYPE msfud_rate_limited_total counter\nmsfud_rate_limited_total %d\n", m.rl.limited.Load())

	cs := m.batcher.Stats()
	fmt.Fprintf(w, "# HELP msfud_singleflight_leader_total Point flights that ran the pipeline (each paid one admission slot).\n# TYPE msfud_singleflight_leader_total counter\nmsfud_singleflight_leader_total %d\n", m.adm.runs.Load())
	fmt.Fprintf(w, "# HELP msfud_singleflight_shared_total Calls that joined an unfinished flight for the same point.\n# TYPE msfud_singleflight_shared_total counter\nmsfud_singleflight_shared_total %d\n", cs.SharedFlights)
	fmt.Fprintf(w, "# HELP msfud_singleflight_inflight Unfinished point flights.\n# TYPE msfud_singleflight_inflight gauge\nmsfud_singleflight_inflight %d\n", cs.InFlight)

	fmt.Fprintf(w, "# HELP msfud_cache_memory_hits_total In-memory memo hits.\n# TYPE msfud_cache_memory_hits_total counter\nmsfud_cache_memory_hits_total %d\n", cs.MemoryHits)
	fmt.Fprintf(w, "# HELP msfud_cache_memory_misses_total In-memory memo misses.\n# TYPE msfud_cache_memory_misses_total counter\nmsfud_cache_memory_misses_total %d\n", cs.MemoryMisses)
	fmt.Fprintf(w, "# HELP msfud_cache_disk_hits_total Points served from the durable store.\n# TYPE msfud_cache_disk_hits_total counter\nmsfud_cache_disk_hits_total %d\n", cs.DiskHits)
	fmt.Fprintf(w, "# HELP msfud_store_records Live report records (one per pipeline point) in the durable store.\n# TYPE msfud_store_records gauge\nmsfud_store_records %d\n", cs.StoredRecords)
	fmt.Fprintf(w, "# HELP msfud_store_bytes Durable store log size in bytes.\n# TYPE msfud_store_bytes gauge\nmsfud_store_bytes %d\n", cs.StoredBytes)
	fmt.Fprintf(w, "# HELP msfud_store_stage_records Live stage artifacts in the durable store.\n# TYPE msfud_store_stage_records gauge\nmsfud_store_stage_records %d\n", cs.StageRecords)

	fmt.Fprintf(w, "# HELP msfud_cache_stage_hits_total Pipeline stage artifacts replayed from the durable store.\n# TYPE msfud_cache_stage_hits_total counter\n")
	fmt.Fprintf(w, "msfud_cache_stage_hits_total{stage=\"build\"} %d\n", cs.StageBuildHits)
	fmt.Fprintf(w, "msfud_cache_stage_hits_total{stage=\"place\"} %d\n", cs.StagePlaceHits)
	fmt.Fprintf(w, "msfud_cache_stage_hits_total{stage=\"sim\"} %d\n", cs.StageSimHits)
	fmt.Fprintf(w, "# HELP msfud_cache_stage_computes_total Pipeline stages actually executed.\n# TYPE msfud_cache_stage_computes_total counter\n")
	fmt.Fprintf(w, "msfud_cache_stage_computes_total{stage=\"build\"} %d\n", cs.StageBuildComputes)
	fmt.Fprintf(w, "msfud_cache_stage_computes_total{stage=\"place\"} %d\n", cs.StagePlaceComputes)
	fmt.Fprintf(w, "msfud_cache_stage_computes_total{stage=\"sim\"} %d\n", cs.StageSimComputes)

	fmt.Fprintf(w, "# HELP msfud_jobs_completed_total Batch jobs finished successfully.\n# TYPE msfud_jobs_completed_total counter\nmsfud_jobs_completed_total %d\n", m.jobsCompleted.Load())
	fmt.Fprintf(w, "# HELP msfud_jobs_failed_total Batch jobs that failed or were cancelled.\n# TYPE msfud_jobs_failed_total counter\nmsfud_jobs_failed_total %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "# HELP msfud_jobs_inflight Batch jobs currently running.\n# TYPE msfud_jobs_inflight gauge\nmsfud_jobs_inflight %d\n", m.jobsInFlight())

	m.latency.write(w, "msfud_request_seconds", "Service time of accepted requests, seconds.")
}

// histogram is a fixed-bucket latency histogram in seconds, shaped like
// a Prometheus histogram (cumulative buckets + sum + count) and able to
// answer quantile estimates for /v1/stats.
type histogram struct {
	counts   []atomic.Int64
	sumNanos atomic.Int64
	total    atomic.Int64
}

// histogramBounds are the bucket upper bounds in seconds; an implicit
// +Inf bucket follows.
var histogramBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(histogramBounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(histogramBounds, seconds)
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(seconds * 1e9))
	h.total.Add(1)
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the rank; an empty histogram reports 0.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, bound := range histogramBounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			if c == 0 {
				return bound
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + frac*(bound-lower)
		}
		cum += c
		lower = bound
	}
	return histogramBounds[len(histogramBounds)-1]
}

// write renders the histogram in Prometheus exposition form.
func (h *histogram) write(w http.ResponseWriter, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, bound := range histogramBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	cum += h.counts[len(histogramBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}
