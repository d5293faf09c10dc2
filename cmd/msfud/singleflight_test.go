package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"magicstate/internal/core"
	"magicstate/internal/fabric"
	"magicstate/internal/store"
)

// statNum reads one numeric /v1/stats field, e.g. ("cache", "memory_hits").
func statNum(t *testing.T, baseURL, group, key string) float64 {
	t.Helper()
	r, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	g, _ := decode[map[string]any](t, r)[group].(map[string]any)
	v, _ := g[key].(float64)
	return v
}

// submitJob posts a /v1/batch job and returns its id.
func submitJob(t *testing.T, baseURL string, req batchRequest) string {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d, want 202", resp.StatusCode)
	}
	return decode[map[string]any](t, resp)["job_id"].(string)
}

// awaitJob polls a job until it leaves "running" and returns its
// final status body.
func awaitJob(t *testing.T, baseURL, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		r, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decode[map[string]any](t, r)
		if jr["status"] != "running" {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %s", id, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitStat polls /v1/stats until group.key reaches at least want.
func awaitStat(t *testing.T, baseURL, group, key string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for statNum(t, baseURL, group, key) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s.%s never reached %g", group, key, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestCancelledJobDoesNotFailSharingJob: two batch jobs share one
// uncached force-directed point. Cancelling the job whose flight
// started the computation must leave the other job to finish done.
func TestCancelledJobDoesNotFailSharingJob(t *testing.T) {
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 4, MaxQueue: 4, MaxParallel: 1})
	req := batchRequest{Points: []optimizeRequest{{Capacity: 64, Levels: 1, Strategy: "fd", Seed: 41}}, Parallelism: 1}

	first := submitJob(t, ts.URL, req)
	awaitStat(t, ts.URL, "cache", "memory_misses", 1)
	second := submitJob(t, ts.URL, req)
	// The second job has joined the flight once the memo counts its hit.
	awaitStat(t, ts.URL, "cache", "memory_hits", 1)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first, nil)
	dr, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if jr := awaitJob(t, ts.URL, first, 60*time.Second); jr["status"] != "failed" {
		t.Fatalf("cancelled job ended %v, want failed", jr["status"])
	}
	if jr := awaitJob(t, ts.URL, second, 60*time.Second); jr["status"] != "done" {
		t.Fatalf("sharing job ended %v (%v), want done", jr["status"], jr["error"])
	}
}

// TestBatchJoiningQueuedFlightCompletes: a batch must not sit on an
// execution slot while it waits for a point another request's flight
// is queued to compute — with one slot, that would deadlock. The job
// computes a slow point, a /v1/optimize request queues behind it for a
// second point, and the job then reaches that same point.
func TestBatchJoiningQueuedFlightCompletes(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 1, MaxQueue: 4, MaxParallel: 1})
	shared := optimizeRequest{Capacity: 4, Levels: 1, Strategy: "line", Seed: 3}
	id := submitJob(t, ts.URL, batchRequest{
		Points:      []optimizeRequest{{Capacity: 64, Levels: 1, Strategy: "fd", Seed: 43}, shared},
		Parallelism: 1,
	})
	awaitStat(t, ts.URL, "admission", "inflight", 1)

	codes := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(shared)
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(data))
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	for srv.adm.queued.Load() == 0 && srv.adm.runs.Load() < 2 {
		time.Sleep(200 * time.Microsecond)
	}
	if jr := awaitJob(t, ts.URL, id, 60*time.Second); jr["status"] != "done" {
		t.Fatalf("job ended %v (%v), want done", jr["status"], jr["error"])
	}
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("queued optimize status = %d, want 200", code)
	}
}

// TestOptimizeDiskHitPromotedToMemo: a point served from the durable
// store is promoted into the memo, so the next request for it on the
// same server is a memory hit, not another disk read.
func TestOptimizeDiskHitPromotedToMemo(t *testing.T) {
	dir := t.TempDir()
	req := optimizeRequest{Capacity: 4, Levels: 1, Strategy: "line", Seed: 7}
	ts1, b1 := newTestServer(t, dir)
	postJSON(t, ts1.URL+"/v1/optimize", req).Body.Close()
	ts1.Close()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newTestServer(t, dir)
	for i := 0; i < 2; i++ {
		if resp := postJSON(t, ts2.URL+"/v1/optimize", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200", i, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}
	if disk := statNum(t, ts2.URL, "cache", "disk_hits"); disk != 1 {
		t.Fatalf("disk_hits = %g, want 1 (the repeat must not read the disk again)", disk)
	}
	if mem := statNum(t, ts2.URL, "cache", "memory_hits"); mem != 1 {
		t.Fatalf("memory_hits = %g, want 1 (the disk hit must be promoted)", mem)
	}
}

// TestFabricEvalAdmission: a forwarded evaluation that must compute
// pays through the admission gate, so a full budget answers 429 (not
// 400); a point already cached is answered without a slot.
func TestFabricEvalAdmission(t *testing.T) {
	_, srv, b := newRobustServer(t, serverConfig{MaxInflight: 1, MaxQueue: 0})
	eval := func(cfg core.Config) *httptest.ResponseRecorder {
		t.Helper()
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(fabric.EvalRequest{Key: store.KeyOf(cfg).String(), Config: cfgJSON})
		w := httptest.NewRecorder()
		srv.handleFabricEval(w, httptest.NewRequest(http.MethodPost, "/v1/fabric/eval", bytes.NewReader(body)))
		return w
	}
	cached := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear}
	cfgJSON, _ := json.Marshal(cached)
	if _, _, err := b.EvalConfigJSON(context.Background(), cfgJSON); err != nil {
		t.Fatal(err)
	}
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	fresh := cached
	fresh.Seed = 9
	if w := eval(fresh); w.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached eval under a full budget: status = %d (%s), want 429", w.Code, w.Body)
	}
	if w := eval(cached); w.Code != http.StatusOK {
		t.Fatalf("cached eval under a full budget: status = %d (%s), want 200", w.Code, w.Body)
	}
}
