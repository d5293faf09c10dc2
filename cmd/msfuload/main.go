// Command msfuload is the load generator and soak harness for msfud:
// it drives a mixed workload — synchronous /v1/optimize points, async
// /v1/batch jobs polled to completion, and streamed SSE batches — at a
// configurable duplicate ratio against one running msfud, through the
// retrying client (internal/httpclient) that honors the server's
// 429/503 + Retry-After pushback, and then asserts the service-level
// objectives the robustness layer promises:
//
//   - bounded p99 latency for accepted optimize requests (-slo-p99);
//   - zero dropped SSE streams: every stream the server accepted ends
//     with a terminal done/error frame, never a silent connection drop;
//   - zero non-injected 5xx responses (rejections are 429/503, which
//     don't count; those are the mechanism working);
//   - served results byte-identical to an in-process serial reference
//     for a sample of points (-verify);
//   - duplicate traffic collapses: the server computes no more distinct
//     points than the workload's universe holds.
//
// A violated SLO exits non-zero and says why. -out writes a JSON report
// of the totals, the server's counters and the violations; its
// benchmarks array carries serve_optimize_p50/p99 entries.
//
// Usage:
//
//	msfuload -addr 127.0.0.1:8350 [-duration 30s] [-workers 8]
//	         [-dup 0.7] [-hot 4] [-batch-every 20] [-sse-every 25]
//	         [-slo-p99 5s] [-verify 8] [-out soak.json] [-seed 1]

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magicstate"
	"magicstate/internal/httpclient"
)

// point is one workload unit: a request body for /v1/optimize and the
// spec/opts to recompute it in-process for verification.
type point struct {
	body map[string]any
	spec magicstate.FactorySpec
	opts magicstate.Options
}

// universe builds the pool of distinct points the workload draws from:
// cheap single- and two-level points across every mapping strategy, so
// the soak exercises each pipeline without any point dominating the
// clock.
func universe() []point {
	var pts []point
	add := func(capacity, levels int, reuse bool, strategy string, seed int64) {
		body := map[string]any{"capacity": capacity, "levels": levels, "seed": seed}
		opts := magicstate.Options{Seed: seed}
		if reuse {
			body["reuse"] = true
		}
		if strategy != "" {
			body["strategy"] = strategy
			st, err := magicstate.ParseStrategy(strategy)
			if err != nil {
				panic(err)
			}
			opts = opts.WithStrategy(st)
		}
		pts = append(pts, point{
			body: body,
			spec: magicstate.FactorySpec{Capacity: capacity, Levels: levels, Reuse: reuse},
			opts: opts,
		})
	}
	for _, capacity := range []int{4, 9, 16, 25} {
		for _, strategy := range []string{"line", "random", "gp"} {
			for seed := int64(1); seed <= 4; seed++ {
				add(capacity, 1, false, strategy, seed)
			}
		}
	}
	for _, capacity := range []int{4, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			add(capacity, 2, true, "hs", seed)
		}
	}
	// Frontend workload points: seeded random circuits of a few shapes,
	// one on a defective mesh, so the soak also exercises the workload
	// build path and defect-aware routing end to end.
	addWorkload := func(source, defects string, seed int64) {
		body := map[string]any{"workload": "random", "workload_source": source, "seed": seed}
		opts := magicstate.Options{Seed: seed, Workload: "random", WorkloadSource: source}
		if defects != "" {
			body["defects"] = defects
			opts.Defects = defects
		}
		pts = append(pts, point{body: body, opts: opts})
	}
	for seed := int64(1); seed <= 4; seed++ {
		addWorkload("q=6;layers=8;cx=0.5;t=0.2", "", seed)
		addWorkload("q=9;layers=6;cx=0.4;t=0.3", "1,0", seed)
	}
	return pts
}

// tally is the shared outcome ledger all workers write into.
type tally struct {
	mu        sync.Mutex
	latencies []time.Duration // accepted /v1/optimize service times

	optimizeOK  atomic.Int64
	rejected    atomic.Int64 // 429s that exhausted retries
	unavailable atomic.Int64 // 503s that exhausted retries
	badRequest  atomic.Int64
	serverError atomic.Int64 // any 5xx other than 503
	transport   atomic.Int64

	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	sseDone     atomic.Int64
	sseDropped  atomic.Int64 // streams ending without a terminal frame
	sseRejected atomic.Int64
}

func (t *tally) recordLatency(d time.Duration) {
	t.mu.Lock()
	t.latencies = append(t.latencies, d)
	t.mu.Unlock()
}

// percentile returns the q-quantile of the recorded latencies (sorted
// copy; 0 when empty).
func (t *tally) percentile(q float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.latencies) == 0 {
		return 0
	}
	s := make([]time.Duration, len(t.latencies))
	copy(s, t.latencies)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// classify folds one optimize response status into the tally.
func (t *tally) classify(status int, err error) {
	switch {
	case err != nil:
		t.transport.Add(1)
	case status == http.StatusOK:
		t.optimizeOK.Add(1)
	case status == http.StatusTooManyRequests:
		t.rejected.Add(1)
	case status == http.StatusServiceUnavailable:
		t.unavailable.Add(1)
	case status == http.StatusBadRequest:
		t.badRequest.Add(1)
	case status >= 500:
		t.serverError.Add(1)
	}
}

// worker drives one goroutine's share of the workload until ctx ends.
func worker(ctx context.Context, id int, base string, c *httpclient.Client, pts []point, cfg workloadConfig, t *tally) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	for op := 1; ; op++ {
		if ctx.Err() != nil {
			return
		}
		switch {
		case cfg.sseEvery > 0 && op%cfg.sseEvery == 0:
			runSSE(ctx, base, pts, rng, t)
		case cfg.batchEvery > 0 && op%cfg.batchEvery == 0:
			runJob(ctx, base, c, pts, rng, t)
		default:
			pt := pick(pts, rng, cfg)
			start := time.Now()
			status, err := c.PostJSON(ctx, base+"/v1/optimize", pt.body, nil)
			if ctx.Err() != nil {
				return // shutdown races look like transport errors; don't count them
			}
			t.classify(status, err)
			if status == http.StatusOK && err == nil {
				t.recordLatency(time.Since(start))
			}
		}
	}
}

// pick draws a point: from the hot set with probability dup (the
// duplicate-heavy traffic that singleflight and the cache collapse),
// uniformly otherwise.
func pick(pts []point, rng *rand.Rand, cfg workloadConfig) point {
	if rng.Float64() < cfg.dup {
		return pts[rng.Intn(cfg.hot)]
	}
	return pts[rng.Intn(len(pts))]
}

// runJob submits a small async batch and polls it to resolution.
func runJob(ctx context.Context, base string, c *httpclient.Client, pts []point, rng *rand.Rand, t *tally) {
	var bodies []map[string]any
	for i := 0; i < 3; i++ {
		bodies = append(bodies, pts[rng.Intn(len(pts))].body)
	}
	var acc struct {
		JobID string `json:"job_id"`
	}
	status, err := c.PostJSON(ctx, base+"/v1/batch", map[string]any{"points": bodies}, &acc)
	if err != nil || status != http.StatusAccepted {
		if ctx.Err() == nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			t.jobsFailed.Add(1)
		}
		return
	}
	for {
		if ctx.Err() != nil {
			return
		}
		var jr struct {
			Status string `json:"status"`
		}
		if _, err := c.GetJSON(ctx, base+"/v1/jobs/"+acc.JobID, &jr); err != nil {
			return
		}
		switch jr.Status {
		case "done":
			t.jobsDone.Add(1)
			return
		case "failed":
			t.jobsFailed.Add(1)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// runSSE streams a small batch and verifies the stream terminates with
// a done/error frame. A stream that the server accepted (200) but that
// ends without a terminal frame is a dropped stream — the SLO the
// drain-time terminal-frame machinery exists to keep at zero.
func runSSE(ctx context.Context, base string, pts []point, rng *rand.Rand, t *tally) {
	var bodies []map[string]any
	for i := 0; i < 3; i++ {
		bodies = append(bodies, pts[rng.Intn(len(pts))].body)
	}
	data, _ := json.Marshal(map[string]any{"points": bodies})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch?stream=1", strings.NewReader(string(data)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			t.transport.Add(1)
		}
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		t.sseRejected.Add(1)
		return
	default:
		t.serverError.Add(1)
		return
	}
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" || line == "event: error" {
			terminal = true
		}
	}
	if terminal {
		t.sseDone.Add(1)
	} else if ctx.Err() == nil {
		t.sseDropped.Add(1)
	}
}

// workloadConfig carries the flag-derived workload shape.
type workloadConfig struct {
	dup        float64
	hot        int
	batchEvery int
	sseEvery   int
	seed       int64
}

// verifyPoints recomputes n sample points in-process (serial
// reference) and compares the server's answers byte-for-byte after
// normalizing through the same struct. Returns the mismatches.
func verifyPoints(base string, c *httpclient.Client, pts []point, n int) []string {
	var bad []string
	for _, pt := range spread(pts, n) {
		var got struct {
			Strategy           string  `json:"strategy"`
			Latency            int     `json:"latency"`
			Area               int     `json:"area"`
			Volume             float64 `json:"volume"`
			CriticalLatency    int     `json:"critical_latency"`
			CriticalVolume     float64 `json:"critical_volume"`
			PermutationLatency int     `json:"permutation_latency"`
		}
		status, err := c.PostJSON(context.Background(), base+"/v1/optimize", pt.body, &got)
		if err != nil || status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("%v: status %d err %v", pt.body, status, err))
			continue
		}
		want, err := magicstate.Optimize(pt.spec, pt.opts)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%v: reference failed: %v", pt.body, err))
			continue
		}
		if got.Strategy != want.Strategy || got.Latency != want.Latency || got.Area != want.Area ||
			got.Volume != want.Volume || got.CriticalLatency != want.CriticalLatency ||
			got.CriticalVolume != want.CriticalVolume || got.PermutationLatency != want.PermutationLatency {
			bad = append(bad, fmt.Sprintf("%v: served %+v, reference %+v", pt.body, got, want))
		}
	}
	return bad
}

// spread returns n points evenly strided across pts, the first point
// included. universe lists its points family by family (capacities,
// strategies, levels, frontend workloads), so even a short sample
// verifies every family, not just the first one.
func spread(pts []point, n int) []point {
	n = min(n, len(pts))
	out := make([]point, n)
	for i := range out {
		out[i] = pts[i*len(pts)/n]
	}
	return out
}

// metricsSnapshot pulls the counters the report and assertions need
// from /v1/stats.
type metricsSnapshot struct {
	Cache struct {
		MemoryHits   int64 `json:"memory_hits"`
		MemoryMisses int64 `json:"memory_misses"`
		DiskHits     int64 `json:"disk_hits"`
	} `json:"cache"`
	Admission struct {
		QueueRejected int64 `json:"queue_rejected"`
		RateLimited   int64 `json:"rate_limited"`
	} `json:"admission"`
	Singleflight struct {
		Leaders int64 `json:"leaders"`
		Shared  int64 `json:"shared"`
	} `json:"singleflight"`
}

func main() {
	os.Exit(run())
}

// run is main's body, returning the exit code.
func run() int {
	addr := flag.String("addr", "", "msfud address (host:port or http:// URL); required")
	duration := flag.Duration("duration", 30*time.Second, "how long to generate load")
	workers := flag.Int("workers", 8, "concurrent load-generating workers")
	dup := flag.Float64("dup", 0.7, "probability a request draws from the hot set (duplicate-heavy traffic)")
	hot := flag.Int("hot", 4, "hot set size for duplicate traffic")
	batchEvery := flag.Int("batch-every", 20, "every Nth worker op submits+polls an async batch job (0 = never)")
	sseEvery := flag.Int("sse-every", 25, "every Nth worker op runs a streamed SSE batch (0 = never)")
	sloP99 := flag.Duration("slo-p99", 5*time.Second, "SLO: max p99 latency for accepted optimize requests")
	verify := flag.Int("verify", 8, "distinct points to verify against the in-process serial reference")
	out := flag.String("out", "", "write a JSON soak report to this file")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	flag.Parse()

	base := strings.TrimSpace(*addr)
	if base == "" {
		fmt.Fprintln(os.Stderr, "msfuload: -addr is required")
		return 2
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	pts := universe()
	if *hot <= 0 || *hot > len(pts) {
		*hot = 1
	}
	cfg := workloadConfig{dup: *dup, hot: *hot, batchEvery: *batchEvery, sseEvery: *sseEvery, seed: *seed}
	client := &httpclient.Client{MaxAttempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

	fmt.Printf("msfuload: %d workers x %v against %s (dup=%.2f hot=%d)\n", *workers, *duration, base, *dup, *hot)
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	t := &tally{}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(ctx, i, base, client, pts, cfg, t)
		}(i)
	}
	wg.Wait()
	cancel()
	elapsed := time.Since(start)

	var violations []string

	// Post-run verification and metrics against the now-idle server.
	mismatches := verifyPoints(base, client, pts, *verify)
	var snap metricsSnapshot
	if _, err := client.GetJSON(context.Background(), base+"/v1/stats", &snap); err != nil {
		fmt.Fprintf(os.Stderr, "msfuload: scraping /v1/stats: %v\n", err)
	}

	p50, p99 := t.percentile(0.50), t.percentile(0.99)
	total := t.optimizeOK.Load() + t.rejected.Load() + t.unavailable.Load() + t.badRequest.Load() + t.serverError.Load()
	fmt.Printf("msfuload: %d optimize responses in %v (%.0f/s): %d ok, %d x429, %d x503, %d x400, %d x5xx, %d transport\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		t.optimizeOK.Load(), t.rejected.Load(), t.unavailable.Load(), t.badRequest.Load(), t.serverError.Load(), t.transport.Load())
	fmt.Printf("msfuload: latency p50=%v p99=%v; jobs %d done %d failed; sse %d done %d rejected %d dropped\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond),
		t.jobsDone.Load(), t.jobsFailed.Load(), t.sseDone.Load(), t.sseRejected.Load(), t.sseDropped.Load())
	fmt.Printf("msfuload: server cache hits=%d misses=%d disk=%d; singleflight leaders=%d shared=%d; rejected=%d rate-limited=%d\n",
		snap.Cache.MemoryHits, snap.Cache.MemoryMisses, snap.Cache.DiskHits,
		snap.Singleflight.Leaders, snap.Singleflight.Shared,
		snap.Admission.QueueRejected, snap.Admission.RateLimited)

	// SLO evaluation.
	if t.optimizeOK.Load() == 0 {
		violations = append(violations, "no optimize request ever succeeded")
	}
	if p99 > *sloP99 {
		violations = append(violations, fmt.Sprintf("p99 %v exceeds SLO %v", p99, *sloP99))
	}
	if n := t.sseDropped.Load(); n > 0 {
		violations = append(violations, fmt.Sprintf("%d SSE streams dropped without a terminal frame", n))
	}
	if n := t.serverError.Load(); n > 0 {
		violations = append(violations, fmt.Sprintf("%d non-injected 5xx responses", n))
	}
	if n := t.badRequest.Load(); n > 0 {
		violations = append(violations, fmt.Sprintf("%d requests rejected as 400 (workload/server contract broken)", n))
	}
	for _, m := range mismatches {
		violations = append(violations, "verification: "+m)
	}
	// Duplicate-heavy traffic must collapse: the distinct points the
	// server computed can never exceed the universe, no matter how many
	// requests were served.
	if snap.Cache.MemoryMisses > int64(len(pts)) {
		violations = append(violations,
			fmt.Sprintf("server computed %d points for a %d-point universe (dedup failed)", snap.Cache.MemoryMisses, len(pts)))
	}

	if *out != "" {
		report := map[string]any{
			"schema":   "msfuload-soak/v1",
			"duration": elapsed.String(),
			"workers":  *workers,
			"dup":      *dup,
			"totals": map[string]int64{
				"optimize_ok": t.optimizeOK.Load(),
				"rejected":    t.rejected.Load(),
				"unavailable": t.unavailable.Load(),
				"server_5xx":  t.serverError.Load(),
				"transport":   t.transport.Load(),
				"jobs_done":   t.jobsDone.Load(),
				"jobs_failed": t.jobsFailed.Load(),
				"sse_done":    t.sseDone.Load(),
				"sse_dropped": t.sseDropped.Load(),
			},
			"server": snap,
			"benchmarks": []map[string]any{
				{"name": "serve_optimize_p50", "ns_per_op": p50.Nanoseconds()},
				{"name": "serve_optimize_p99", "ns_per_op": p99.Nanoseconds()},
			},
			"violations": violations,
		}
		data, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "msfuload: writing %s: %v\n", *out, err)
			return 1
		}
		fmt.Printf("msfuload: report written to %s\n", *out)
	}

	if len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "msfuload: SLO VIOLATIONS:")
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  - "+v)
		}
		return 1
	}
	fmt.Println("msfuload: all SLOs met")
	return 0
}
