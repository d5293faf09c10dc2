package store

import "magicstate/internal/core"

// Stage records share the final-record store: same append-only log,
// same index, same crash recovery and same peer tier — a stage
// artifact is just a payload filed under a stage-scoped key
// (StageKeyOf). Two layers keep the kinds from ever mixing:
//
//   - Keys are domain-separated. A stage key's preimage starts
//     "magicstate/store stage/..." where a final key's starts
//     "magicstate/store v...", so the two can only collide by breaking
//     SHA-256.
//   - Payloads are framed. Every stage payload opens with
//     stagePayloadMagic plus the stage byte, which no JSON record can
//     start with, so scrubbing and admission checks can tell the kinds
//     apart without consulting the key.

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

// StagePayload recognizes a stage-record payload, returning its stage
// id and codec body. ok=false means the payload is not stage-framed (a
// final JSON record, or foreign data).
func StagePayload(payload []byte) (st core.Stage, body []byte, ok bool) {
	if len(payload) < len(stagePayloadMagic)+1 ||
		string(payload[:len(stagePayloadMagic)]) != stagePayloadMagic {
		return 0, nil, false
	}
	return core.Stage(payload[len(stagePayloadMagic)]), payload[len(stagePayloadMagic)+1:], true
}

// PutStage persists a stage artifact body under its stage-scoped key.
// Like PutReport, uncacheable combinations are silently skipped so
// callers can offer every artifact without gating.
func (s *Store) PutStage(st core.Stage, cfg core.Config, body []byte) error {
	if !StageCacheable(st, cfg) {
		return nil
	}
	return s.Put(StageKeyOf(st, cfg), stageWrap(st, body))
}

// GetStage returns the stage artifact body stored for cfg, strictly
// locally. A payload under the key that is not framed as this stage's
// record is treated as a miss: the caller recomputes and the store
// serves final records none the worse.
func (s *Store) GetStage(st core.Stage, cfg core.Config) ([]byte, bool) {
	if !StageCacheable(st, cfg) {
		return nil, false
	}
	payload, ok := s.getStage(StageKeyOf(st, cfg))
	if !ok {
		return nil, false
	}
	gotSt, body, ok := StagePayload(payload)
	if !ok || gotSt != st {
		return nil, false
	}
	return body, true
}
