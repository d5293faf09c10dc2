package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"magicstate"
)

// newTestServer boots a service on an httptest listener, backed by a
// store when dir is non-empty. The returned batcher lets tests that
// restart the "process" close the store before reopening the directory
// (one writer per directory); cleanup closes it regardless.
func newTestServer(t *testing.T, dir string) (*httptest.Server, *magicstate.Batcher) {
	t.Helper()
	b, err := magicstate.NewBatcher(magicstate.BatcherOptions{Parallelism: 2, Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	srv := newServer(b, serverConfig{MaxParallel: 2, MaxPoints: 64, MaxInflight: 4, MaxQueue: 64})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, b
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestOptimizeEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	res := decode[magicstate.Result](t, resp)
	want, err := magicstate.Optimize(magicstate.FactorySpec{Capacity: 4, Levels: 1}, magicstate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != *want {
		t.Fatalf("service result %+v differs from library result %+v", res, *want)
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for name, body := range map[string]any{
		"invalid capacity":  optimizeRequest{Capacity: 5, Levels: 2}, // not a perfect square
		"bad strategy":      optimizeRequest{Capacity: 4, Levels: 1, Strategy: "nope"},
		"bad style":         optimizeRequest{Capacity: 4, Levels: 1, Style: "nope"},
		"negative distance": optimizeRequest{Capacity: 4, Levels: 1, Style: "surgery", Distance: -7},
	} {
		resp := postJSON(t, ts.URL+"/v1/optimize", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		errResp := decode[map[string]string](t, resp)
		if errResp["error"] == "" {
			t.Errorf("%s: missing error body", name)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

func TestBatchJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{
		Grid: &gridSpec{Capacities: []int{2, 4}, Levels: 1, Strategies: []string{"line", "random"}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	acc := decode[map[string]any](t, resp)
	id, _ := acc["job_id"].(string)
	if id == "" {
		t.Fatalf("no job_id in %v", acc)
	}
	if total := acc["total"].(float64); total != 4 {
		t.Fatalf("total = %v, want 4", total)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decode[map[string]any](t, r)
		switch jr["status"] {
		case "done":
			results := jr["results"].([]any)
			if len(results) != 4 {
				t.Fatalf("job returned %d results, want 4", len(results))
			}
			return
		case "failed":
			t.Fatalf("job failed: %v", jr["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %v after 30s", jr["status"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchStreamSSE(t *testing.T) {
	ts, _ := newTestServer(t, "")
	body, _ := json.Marshal(batchRequest{
		Points: []optimizeRequest{{Capacity: 2, Levels: 1}, {Capacity: 4, Levels: 1}},
	})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var progress, done int
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "progress":
				progress++
			case "done":
				done++
				lastData = strings.TrimPrefix(line, "data: ")
			case "error":
				t.Fatalf("stream reported error: %s", strings.TrimPrefix(line, "data: "))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress != 2 || done != 1 {
		t.Fatalf("saw %d progress and %d done events, want 2 and 1", progress, done)
	}
	var final struct {
		Results []magicstate.Result `json:"results"`
	}
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if len(final.Results) != 2 {
		t.Fatalf("done event carried %d results, want 2", len(final.Results))
	}
}

func TestBatchCapsAndValidation(t *testing.T) {
	ts, _ := newTestServer(t, "")
	// 65 points exceeds the test server's 64-point cap.
	caps := make([]int, 65)
	for i := range caps {
		caps[i] = 2
	}
	seeds := []int64{1}
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{Grid: &gridSpec{Capacities: caps, Levels: 1, Seeds: seeds}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{Grid: &gridSpec{Capacities: []int{4}, Levels: 1, Style: "teleport", Distance: -7}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative distance: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{
		Points: []optimizeRequest{{Capacity: 2, Levels: 1}},
		Grid:   &gridSpec{Capacities: []int{2}, Levels: 1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("points+grid: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	if r, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status = %d, want 404", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestStatsReflectsDurableTier drives the service's reason to exist:
// a second server process over the same store directory must answer
// repeated points from disk, visible in /v1/stats.
func TestStatsReflectsDurableTier(t *testing.T) {
	dir := t.TempDir()
	req := optimizeRequest{Capacity: 4, Levels: 2, Reuse: true, Strategy: "hs", Seed: 1}

	ts1, b1 := newTestServer(t, dir)
	resp := postJSON(t, ts1.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	first := decode[magicstate.Result](t, resp)
	ts1.Close()
	if err := b1.Close(); err != nil { // release the store for the "restarted" server
		t.Fatal(err)
	}

	ts2, _ := newTestServer(t, dir)
	resp = postJSON(t, ts2.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server: status = %d, want 200", resp.StatusCode)
	}
	second := decode[magicstate.Result](t, resp)
	if first != second {
		t.Fatalf("disk-served result %+v differs from computed %+v", second, first)
	}

	r, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status = %d, want 200", r.StatusCode)
	}
	stats := decode[struct {
		Cache struct {
			DiskHits      int64  `json:"disk_hits"`
			StoredRecords int    `json:"stored_records"`
			CheckpointDir string `json:"checkpoint_dir"`
		} `json:"cache"`
		Jobs struct {
			InFlight int `json:"in_flight"`
		} `json:"jobs"`
	}](t, r)
	if stats.Cache.DiskHits != 1 {
		t.Fatalf("disk_hits = %d, want 1 (restarted server must reuse the store)", stats.Cache.DiskHits)
	}
	if stats.Cache.StoredRecords != 1 {
		t.Fatalf("stored_records = %d, want 1", stats.Cache.StoredRecords)
	}
	if stats.Cache.CheckpointDir != dir {
		t.Fatalf("checkpoint_dir = %q, want %q", stats.Cache.CheckpointDir, dir)
	}
}

func TestJobCancel(t *testing.T) {
	ts, _ := newTestServer(t, "")
	// A grid big enough to still be running when the cancel lands:
	// distinct-seed two-level stitched points, evaluated serially.
	var pts []optimizeRequest
	for i := 0; i < 60; i++ {
		pts = append(pts, optimizeRequest{Capacity: 16, Levels: 2, Reuse: true, Seed: int64(i)})
	}
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{Points: pts, Parallelism: 1})
	acc := decode[map[string]any](t, resp)
	id := acc["job_id"].(string)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dr, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", dr.StatusCode)
	}
	dr.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decode[map[string]any](t, r)
		if jr["status"] == "failed" {
			if !strings.Contains(fmt.Sprint(jr["error"]), "cancel") {
				t.Fatalf("cancelled job error = %v, want a context cancellation", jr["error"])
			}
			return
		}
		if jr["status"] == "done" {
			t.Skip("job finished before the cancel landed; nothing to assert")
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never resolved")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
