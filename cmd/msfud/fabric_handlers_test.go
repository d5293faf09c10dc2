package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/fabric"
	"magicstate/internal/store"
)

// TestPeerRecordPutVerifiesPayload: a replicated record is admitted only
// if it decodes as a stored record, even when its envelope is
// digest-valid.
func TestPeerRecordPutVerifiesPayload(t *testing.T) {
	n := newTestCluster(t, []string{"solo"}, clusterOpt{})["solo"]
	k := store.KeyOf(core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear})
	url := n.ts.URL + "/v1/record/" + k.String()
	put := func(payload string) int {
		t.Helper()
		body, err := json.Marshal(fabric.NewEnvelope(k, []byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(`{"strategy":"x","latency":1,"area":1,"volume":1,"critical_latency":1,"critical_volume":1,"perm_latency":0,"stalls":0}`); code != http.StatusNoContent {
		t.Fatalf("valid record refused: status %d", code)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admitted record not served: status %d", resp.StatusCode)
	}
	if code := put(`not a record`); code != http.StatusBadRequest {
		t.Fatalf("garbage payload: status %d, want 400", code)
	}
	if code := put(`{"strategy":"x","surprise_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown-field payload: status %d, want 400 (version-skew guard)", code)
	}
}

// TestPeerEvalContract: a forwarded evaluation answers the config's key
// and its final-record payload; a config that does not decode strictly,
// or that is not cacheable, is refused rather than computed.
func TestPeerEvalContract(t *testing.T) {
	_, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 1, MaxQueue: 0})
	eval := func(key store.Key, cfgJSON []byte) *httptest.ResponseRecorder {
		t.Helper()
		body, _ := json.Marshal(fabric.EvalRequest{Key: key.String(), Config: cfgJSON})
		w := httptest.NewRecorder()
		srv.handleFabricEval(w, httptest.NewRequest(http.MethodPost, "/v1/fabric/eval", bytes.NewReader(body)))
		return w
	}

	cfg := core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := eval(store.KeyOf(cfg), cfgJSON)
	if w.Code != http.StatusOK {
		t.Fatalf("eval: status %d (%s)", w.Code, w.Body)
	}
	var env fabric.RecordEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Key != store.KeyOf(cfg).String() {
		t.Fatalf("key = %s, want %s", env.Key, store.KeyOf(cfg))
	}
	var rec map[string]any
	if err := json.Unmarshal(env.Payload, &rec); err != nil {
		t.Fatalf("payload does not decode: %v", err)
	}
	if rec["latency"].(float64) <= 0 {
		t.Fatalf("payload = %s", env.Payload)
	}

	// Strict decode: unknown fields are refused.
	if w := eval(store.KeyOf(cfg), []byte(`{"K":2,"NoSuchField":1}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown config field: status %d, want 400", w.Code)
	}
	// Uncacheable (trace-carrying) configs are refused, not computed.
	traceCfg := cfg
	traceCfg.RecordPaths = true
	traceJSON, _ := json.Marshal(traceCfg)
	if w := eval(store.KeyOf(traceCfg), traceJSON); w.Code != http.StatusBadRequest {
		t.Fatalf("uncacheable config: status %d, want 400", w.Code)
	}
}
