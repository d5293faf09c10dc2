package store

import "magicstate/internal/core"

// Every record is a stage artifact filed under its stage key
// (StageKeyOf), and every payload is framed: it opens with
// stagePayloadMagic plus the stage byte, so scrubbing and recovery can
// tell a record's stage without consulting the key, and a payload of
// another stage (or of no stage) under a key is a miss, never an
// answer.

// stagePayloadMagic opens every stage-artifact payload. The next byte
// is the stage id (core.Stage), then the stage codec body.
const stagePayloadMagic = "msstage/1:"

// stageWrap frames a stage codec body as a store payload.
func stageWrap(st core.Stage, body []byte) []byte {
	p := make([]byte, 0, len(stagePayloadMagic)+1+len(body))
	p = append(p, stagePayloadMagic...)
	p = append(p, byte(st))
	return append(p, body...)
}

// stagePayload recognizes a stage-record payload, returning its stage
// id and codec body. ok=false means the payload is not stage-framed
// (foreign data, or a record of an older unframed encoding).
func stagePayload(payload []byte) (st core.Stage, body []byte, ok bool) {
	if len(payload) < len(stagePayloadMagic)+1 ||
		string(payload[:len(stagePayloadMagic)]) != stagePayloadMagic {
		return 0, nil, false
	}
	return core.Stage(payload[len(stagePayloadMagic)]), payload[len(stagePayloadMagic)+1:], true
}

// isReport reports whether payload is a framed report record, the kind
// the stats ledger counts as a pipeline point.
func isReport(payload []byte) bool {
	st, _, ok := stagePayload(payload)
	return ok && st == core.StageReport
}

// PutStage persists a stage artifact body under its stage-scoped key.
// Uncacheable combinations are silently skipped so callers can offer
// every artifact without gating.
func (s *Store) PutStage(st core.Stage, cfg core.Config, body []byte) error {
	if !StageCacheable(st, cfg) {
		return nil
	}
	return s.put(StageKeyOf(st, cfg), stageWrap(st, body))
}

// GetStage returns the stage artifact body stored for cfg. A payload
// under the key that is not framed as this stage's record is treated
// as a miss: the caller recomputes.
func (s *Store) GetStage(st core.Stage, cfg core.Config) ([]byte, bool) {
	if !StageCacheable(st, cfg) {
		return nil, false
	}
	payload, ok := s.get(StageKeyOf(st, cfg))
	if !ok {
		return nil, false
	}
	gotSt, body, ok := stagePayload(payload)
	if !ok || gotSt != st {
		return nil, false
	}
	return body, true
}
