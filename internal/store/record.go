package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"magicstate/internal/core"
)

// Record is the durable form of a pipeline result: the scalar fields of
// core.Report, without the in-memory Factory/Placement/Sim artifacts.
// Every consumer of memoized grid points (Table I, Figs. 7/9/10, the
// style and level studies, the public Result type) reads exactly these
// fields, which is what makes a disk round-trip lossless for them.
// Records are stored as JSON; encoding/json renders float64 with the
// shortest round-tripping representation, so values survive a
// store/load cycle bit-for-bit and resumed sweeps emit byte-identical
// artifacts.
type Record struct {
	Strategy        string  `json:"strategy"`         // mapper label, as core.Report.Strategy
	Latency         int     `json:"latency"`          // simulated execution time in cycles
	Area            int     `json:"area"`             // logical-qubit tile count
	Volume          float64 `json:"volume"`           // Latency x Area
	CriticalLatency int     `json:"critical_latency"` // dependency-limited latency bound
	CriticalVolume  float64 `json:"critical_volume"`  // volume at the critical bound
	PermLatency     int     `json:"perm_latency"`     // inter-round permutation window
	Stalls          int     `json:"stalls"`           // rejected braid attempts
}

// RecordOf extracts the durable scalar outcome of rep.
func RecordOf(rep *core.Report) Record {
	return Record{
		Strategy:        rep.Strategy,
		Latency:         rep.Latency,
		Area:            rep.Area,
		Volume:          rep.Volume,
		CriticalLatency: rep.CriticalLatency,
		CriticalVolume:  rep.CriticalVolume,
		PermLatency:     rep.PermLatency,
		Stalls:          rep.Stalls,
	}
}

// Report rebuilds a core.Report for cfg from the stored scalars. The
// Factory, Placement and Sim pointers are nil — disk-served reports
// only feed consumers of the scalar fields (Cacheable gates out the
// configs whose callers need more).
func (r Record) Report(cfg core.Config) *core.Report {
	return &core.Report{
		Config:          cfg,
		Strategy:        r.Strategy,
		Latency:         r.Latency,
		Area:            r.Area,
		Volume:          r.Volume,
		CriticalLatency: r.CriticalLatency,
		CriticalVolume:  r.CriticalVolume,
		PermLatency:     r.PermLatency,
		Stalls:          r.Stalls,
	}
}

// LookupReport returns the stored result for cfg, or ok=false when cfg
// is not cacheable, absent, or stored in an undecodable form (treated
// as a miss: the caller recomputes and overwrites nothing).
func (s *Store) LookupReport(cfg core.Config) (rep *core.Report, ok bool) {
	if !Cacheable(cfg) {
		return nil, false
	}
	payload, ok := s.Get(KeyOf(cfg))
	if !ok {
		return nil, false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, false
	}
	return r.Report(cfg), true
}

// DecodeRecord is the strict decode for final-record payloads that
// arrive from another node (peer fetch, forwarded evaluation,
// replication): exactly one JSON Record with no unknown fields and
// nothing after it. An unknown field is version skew between nodes and
// is refused rather than misread. Records already in the local store
// are read laxly by LookupReport instead, so they keep answering.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("store: record payload does not decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, fmt.Errorf("store: record payload has trailing data")
	}
	return r, nil
}

// PutReport persists rep's scalar outcome under cfg's key. Uncacheable
// configs are silently skipped, so callers can offer every result to
// the store without gating.
func (s *Store) PutReport(cfg core.Config, rep *core.Report) error {
	if !Cacheable(cfg) {
		return nil
	}
	payload, err := json.Marshal(RecordOf(rep))
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	return s.Put(KeyOf(cfg), payload)
}
