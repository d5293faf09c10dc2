package store

import (
	"encoding/json"
	"strings"
	"testing"

	"magicstate/internal/core"
)

func TestParseKey(t *testing.T) {
	k := KeyOf(core.Config{K: 4, Levels: 2})
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey(String) = %v, %v; want round-trip", got, err)
	}
	for _, bad := range []string{"", "zz", "abcd", strings.Repeat("ab", 31), strings.Repeat("ab", 33)} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

// TestDecodeRecordStrict pins the one admission decode for final
// records from other nodes: a record round-trips, while unknown fields,
// trailing data and non-JSON are refused.
func TestDecodeRecordStrict(t *testing.T) {
	rec := Record{Strategy: "peer", Latency: 42, Area: 7, Volume: 294}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeRecord(payload); err != nil || got != rec {
		t.Fatalf("DecodeRecord(valid) = %+v, %v; want %+v", got, err, rec)
	}
	for _, bad := range []string{
		`{not json`,
		`{"strategy":"x","surprise_field":1}`,
		string(payload) + `{}`,
		string(payload) + `x`,
	} {
		if _, err := DecodeRecord([]byte(bad)); err == nil {
			t.Errorf("DecodeRecord(%q) accepted", bad)
		}
	}
}

func TestOnPutHookFiresOnFreshPutsOnly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type putEvent struct {
		k       Key
		payload string
	}
	var events []putEvent
	s.SetOnPut(func(k Key, payload []byte) {
		events = append(events, putEvent{k, string(payload)})
	})

	k := KeyOf(core.Config{K: 5, Levels: 1})
	if err := s.Put(k, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte(`{"a":2}`)); err != nil { // duplicate: no event
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].k != k || events[0].payload != `{"a":1}` {
		t.Fatalf("events = %+v, want one fresh-put event", events)
	}

	// The hook can call back into the store without deadlocking (it
	// runs outside the store lock) — the fabric's NotifyPut reads ring
	// state but replication receivers do re-enter Put paths.
	s.SetOnPut(func(k Key, payload []byte) { s.Get(k) })
	if err := s.Put(KeyOf(core.Config{K: 6, Levels: 1}), []byte(`{"b":1}`)); err != nil {
		t.Fatal(err)
	}
}
