package core

import (
	"encoding/binary"
	"fmt"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

// Stage artifact codecs: compact, versioned binary encodings of the
// artifacts the staged pipeline persists (BuildArtifact, PlaceArtifact,
// the simulation mesh.Result and the report's scalars). The format is
// deliberately boring — a magic string, a version byte, then every
// field in declaration order as varints — because the properties that
// matter are elsewhere:
//
//   - Lossless for replay: everything a downstream stage reads is
//     encoded. The two deliberate omissions are bravyi.Params.Assigner
//     (a policy func consulted only during Build, never replayed) and
//     mesh.Result.Paths/HoldEnd (diagnostic fields populated only under
//     RecordPaths; configs that need them never cache the sim stage).
//     A report artifact holds only the integers Assemble computes; its
//     Strategy and volumes are rederived from the config on decode.
//   - Strict on decode: a corrupt or truncated record is rejected with
//     an error, never admitted — every count is bounded by the bytes
//     that remain, every index is range-checked against the structure
//     decoded so far, and trailing bytes fail the decode. The fuzz
//     target FuzzStageArtifactDecode hammers exactly this contract.
//   - Versioned: bumping a stage's codec version orphans (never
//     misreads) records written by older encodings, the same contract
//     internal/store's key format version gives its keys.

// Codec version bytes, one per artifact kind. Bump on any change to the
// corresponding encoding's meaning.
const (
	buildCodecVersion  = 1
	placeCodecVersion  = 1
	simCodecVersion    = 1
	reportCodecVersion = 1
)

// Codec magic strings. Distinct per artifact kind so a record can never
// decode as the wrong kind even if stage framing above this layer is
// confused.
const (
	buildMagic  = "msc/build"
	placeMagic  = "msc/place"
	simMagic    = "msc/sim"
	reportMagic = "msc/report"
)

// enc is an append-only varint writer.
type enc struct{ b []byte }

func (e *enc) magic(m string, version byte) { e.b = append(append(e.b, m...), version) }
func (e *enc) uint(v uint64)                { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) int(v int)                    { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) qubits(qs []circuit.Qubit) {
	e.uint(uint64(len(qs)))
	for _, q := range qs {
		e.int(int(q))
	}
}
func (e *enc) ints(vs []int) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

// dec is the matching reader. The first failure latches into err and
// every later read returns zero values, so decode bodies read linearly
// and check err once per structural boundary.
type dec struct {
	data []byte
	off  int
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) magic(m string, version byte) {
	if d.err != nil {
		return
	}
	if len(d.data)-d.off < len(m)+1 || string(d.data[d.off:d.off+len(m)]) != m {
		d.fail("bad magic (want %q)", m)
		return
	}
	d.off += len(m)
	if got := d.data[d.off]; got != version {
		d.fail("unsupported %s version %d (want %d)", m, got, version)
		return
	}
	d.off++
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.fail("bad bool byte %d at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// count reads a length prefix and bounds it by the bytes remaining
// (each encoded element costs at least perItem bytes), so a corrupt
// length can never drive a giant allocation.
func (d *dec) count(perItem int) int {
	v := d.uint()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.data)-d.off) / uint64(perItem); v > max {
		d.fail("count %d exceeds remaining input (%d bytes)", v, len(d.data)-d.off)
		return 0
	}
	return int(v)
}

func (d *dec) qubits(min, max int) []circuit.Qubit {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	qs := make([]circuit.Qubit, n)
	for i := range qs {
		v := d.int()
		if d.err == nil && (v < min || v >= max) {
			d.fail("qubit %d out of range [%d, %d)", v, min, max)
		}
		qs[i] = circuit.Qubit(v)
	}
	return qs
}

func (d *dec) ints(min, max int) []int {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		v := d.int()
		if d.err == nil && (v < min || v >= max) {
			d.fail("value %d out of range [%d, %d)", v, min, max)
		}
		vs[i] = v
	}
	return vs
}

// done rejects trailing bytes: a valid record is consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%d trailing bytes after a complete record", len(d.data)-d.off)
	}
	return nil
}

func encodeCircuit(e *enc, c *circuit.Circuit) {
	e.int(c.NumQubits)
	e.uint(uint64(len(c.Gates)))
	for i := range c.Gates {
		g := &c.Gates[i]
		e.uint(uint64(g.Kind))
		e.int(int(g.Control))
		e.qubits(g.Targets)
		e.int(int(g.Dest))
		e.int(g.Round)
		e.int(g.Module)
	}
	e.uint(uint64(len(c.Names)))
	for _, n := range c.Names {
		e.uint(uint64(len(n)))
		e.b = append(e.b, n...)
	}
}

func decodeCircuit(d *dec) *circuit.Circuit {
	c := &circuit.Circuit{}
	c.NumQubits = d.int()
	if d.err == nil && c.NumQubits < 0 {
		d.fail("negative qubit count %d", c.NumQubits)
	}
	nGates := d.count(5) // kind, control, target len, dest, round/module ≥ 5 bytes
	if d.err != nil {
		return c
	}
	c.Gates = make([]circuit.Gate, nGates)
	for i := range c.Gates {
		g := &c.Gates[i]
		kind := d.uint()
		if d.err == nil && kind > uint64(circuit.KindBarrier) {
			d.fail("gate %d has unknown kind %d", i, kind)
		}
		g.Kind = circuit.Kind(kind)
		ctrl := d.int()
		if d.err == nil && (ctrl < int(circuit.NoQubit) || ctrl >= c.NumQubits) {
			d.fail("gate %d control %d out of range", i, ctrl)
		}
		g.Control = circuit.Qubit(ctrl)
		g.Targets = d.qubits(0, c.NumQubits)
		dest := d.int()
		if d.err == nil && (dest < int(circuit.NoQubit) || dest >= c.NumQubits) {
			d.fail("gate %d dest %d out of range", i, dest)
		}
		g.Dest = circuit.Qubit(dest)
		g.Round = d.int()
		g.Module = d.int()
		if d.err != nil {
			return c
		}
	}
	nNames := d.count(1)
	if d.err == nil && nNames != 0 && nNames != c.NumQubits {
		d.fail("name count %d does not match %d qubits", nNames, c.NumQubits)
	}
	if d.err != nil {
		return c
	}
	if nNames > 0 {
		c.Names = make([]string, nNames)
		for i := range c.Names {
			n := d.count(1)
			if d.err != nil {
				return c
			}
			c.Names[i] = string(d.data[d.off : d.off+n])
			d.off += n
		}
	}
	return c
}

func encodePlacement(e *enc, p *layout.Placement) {
	e.int(p.W)
	e.int(p.H)
	e.uint(uint64(len(p.Pos)))
	for _, pt := range p.Pos {
		e.int(pt.X)
		e.int(pt.Y)
	}
}

func decodePlacement(d *dec) *layout.Placement {
	p := &layout.Placement{}
	p.W = d.int()
	p.H = d.int()
	n := d.count(2)
	if d.err != nil {
		return p
	}
	p.Pos = make([]layout.Point, n)
	for i := range p.Pos {
		p.Pos[i] = layout.Point{X: d.int(), Y: d.int()}
	}
	return p
}

// EncodeBuildArtifact serializes a StageBuild artifact.
func EncodeBuildArtifact(b *BuildArtifact) []byte {
	e := &enc{}
	e.magic(buildMagic, buildCodecVersion)
	f := b.Factory
	e.int(f.Params.K)
	e.int(f.Params.Levels)
	e.bool(f.Params.Reuse)
	e.bool(f.Params.Barriers)
	encodeCircuit(e, f.Circuit)
	e.uint(uint64(len(f.Modules)))
	for i := range f.Modules {
		m := &f.Modules[i]
		e.int(m.Round)
		e.int(m.Index)
		e.int(m.InRound)
		e.int(m.Group)
		e.qubits(m.Raw)
		e.qubits(m.Anc)
		e.qubits(m.Out)
		e.ints(m.RawConsumer)
		e.int(m.GateStart)
		e.int(m.GateEnd)
	}
	e.uint(uint64(len(f.Rounds)))
	for i := range f.Rounds {
		r := &f.Rounds[i]
		e.int(r.Index)
		e.ints(r.Modules)
		e.int(r.PermStart)
		e.int(r.PermEnd)
		e.int(r.GateStart)
		e.int(r.GateEnd)
		e.qubits(r.Fresh)
	}
	e.uint(uint64(len(f.Wires)))
	for i := range f.Wires {
		w := &f.Wires[i]
		e.int(w.FromModule)
		e.int(w.FromPort)
		e.int(w.ToModule)
		e.int(w.ToSlot)
		e.int(w.GateIdx)
	}
	e.bool(b.Placement != nil)
	if b.Placement != nil {
		encodePlacement(e, b.Placement)
	}
	return e.b
}

// DecodeBuildArtifact is the strict inverse of EncodeBuildArtifact.
func DecodeBuildArtifact(data []byte) (*BuildArtifact, error) {
	d := &dec{data: data}
	d.magic(buildMagic, buildCodecVersion)
	f := &bravyi.Factory{}
	f.Params.K = d.int()
	f.Params.Levels = d.int()
	f.Params.Reuse = d.bool()
	f.Params.Barriers = d.bool()
	f.Circuit = decodeCircuit(d)
	nGates := len(f.Circuit.Gates)
	nMod := d.count(10)
	if d.err == nil && nMod > 0 {
		f.Modules = make([]bravyi.Module, nMod)
		for i := range f.Modules {
			m := &f.Modules[i]
			m.Round = d.int()
			m.Index = d.int()
			m.InRound = d.int()
			m.Group = d.int()
			m.Raw = d.qubits(0, f.Circuit.NumQubits)
			m.Anc = d.qubits(0, f.Circuit.NumQubits)
			m.Out = d.qubits(0, f.Circuit.NumQubits)
			m.RawConsumer = d.ints(-1, nGates)
			m.GateStart = d.int()
			m.GateEnd = d.int()
			if d.err == nil && (m.GateStart < 0 || m.GateEnd < m.GateStart || m.GateEnd > nGates) {
				d.fail("module %d gate span [%d, %d) out of range", i, m.GateStart, m.GateEnd)
			}
			if d.err != nil {
				break
			}
		}
	}
	nRounds := d.count(7)
	if d.err == nil && nRounds > 0 {
		f.Rounds = make([]bravyi.Round, nRounds)
		for i := range f.Rounds {
			r := &f.Rounds[i]
			r.Index = d.int()
			r.Modules = d.ints(0, nMod)
			r.PermStart = d.int()
			r.PermEnd = d.int()
			r.GateStart = d.int()
			r.GateEnd = d.int()
			r.Fresh = d.qubits(0, f.Circuit.NumQubits)
			if d.err == nil && (r.PermStart < 0 || r.PermEnd < r.PermStart || r.PermEnd > nGates ||
				r.GateStart < 0 || r.GateEnd < r.GateStart || r.GateEnd > nGates) {
				d.fail("round %d gate spans out of range", i)
			}
			if d.err != nil {
				break
			}
		}
	}
	nWires := d.count(5)
	if d.err == nil && nWires > 0 {
		f.Wires = make([]bravyi.Wire, nWires)
		for i := range f.Wires {
			w := &f.Wires[i]
			w.FromModule = d.int()
			w.FromPort = d.int()
			w.ToModule = d.int()
			w.ToSlot = d.int()
			w.GateIdx = d.int()
			if d.err == nil && (w.FromModule < 0 || w.FromModule >= nMod ||
				w.ToModule < 0 || w.ToModule >= nMod ||
				w.GateIdx < -1 || w.GateIdx >= nGates) {
				d.fail("wire %d references out-of-range module or gate", i)
			}
			if d.err != nil {
				break
			}
		}
	}
	b := &BuildArtifact{Factory: f}
	if d.bool() {
		b.Placement = decodePlacement(d)
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("core: decode build artifact: %w", err)
	}
	return b, nil
}

// EncodePlaceArtifact serializes a StagePlace artifact. Only the
// placement is durable: the Sim byproduct (force-directed candidate
// evaluation) is freshness-only and is recomputed deterministically by
// SimStage when the artifact is replayed.
func EncodePlaceArtifact(p *PlaceArtifact) []byte {
	e := &enc{}
	e.magic(placeMagic, placeCodecVersion)
	encodePlacement(e, p.Placement)
	return e.b
}

// DecodePlaceArtifact is the strict inverse of EncodePlaceArtifact.
// The returned artifact's Sim is nil by construction.
func DecodePlaceArtifact(data []byte) (*PlaceArtifact, error) {
	d := &dec{data: data}
	d.magic(placeMagic, placeCodecVersion)
	pl := decodePlacement(d)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("core: decode place artifact: %w", err)
	}
	return &PlaceArtifact{Placement: pl}, nil
}

// EncodeSimArtifact serializes a StageSim result: the scalar outcome
// plus the per-gate timing arrays report assembly reads (the
// permutation window needs Start/End). Paths and HoldEnd are never
// encoded; configs that record them do not cache the sim stage.
func EncodeSimArtifact(r *mesh.Result) []byte {
	e := &enc{}
	e.magic(simMagic, simCodecVersion)
	e.int(r.Latency)
	e.int(r.Area)
	e.int(r.Stalls)
	e.uint(uint64(len(r.Start)))
	for _, v := range r.Start {
		e.int(v)
	}
	if len(r.End) != len(r.Start) {
		// Structurally impossible for a simulator result; encode
		// defensively so a decode can never misalign the two arrays.
		panic("core: sim result Start/End length mismatch")
	}
	for _, v := range r.End {
		e.int(v)
	}
	return e.b
}

// DecodeSimArtifact is the strict inverse of EncodeSimArtifact.
func DecodeSimArtifact(data []byte) (*mesh.Result, error) {
	d := &dec{data: data}
	d.magic(simMagic, simCodecVersion)
	r := &mesh.Result{}
	r.Latency = d.int()
	r.Area = d.int()
	r.Stalls = d.int()
	n := d.count(2)
	if d.err == nil && n > 0 {
		r.Start = make([]int, n)
		for i := range r.Start {
			r.Start[i] = d.int()
		}
		r.End = make([]int, n)
		for i := range r.End {
			r.End[i] = d.int()
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("core: decode sim artifact: %w", err)
	}
	return r, nil
}

// EncodeReportArtifact serializes a StageReport artifact: the integers
// Assemble computes (Latency, Area, CriticalLatency, PermLatency,
// Stalls). Strategy and the volumes are functions of the config and
// these, so they are rederived on decode rather than stored.
func EncodeReportArtifact(r *Report) []byte {
	e := &enc{}
	e.magic(reportMagic, reportCodecVersion)
	e.int(r.Latency)
	e.int(r.Area)
	e.int(r.CriticalLatency)
	e.int(r.PermLatency)
	e.int(r.Stalls)
	return e.b
}

// DecodeReportArtifact is the strict inverse of EncodeReportArtifact: it
// rebuilds cfg's report from the stored integers. The Factory,
// Placement and Sim pointers are nil — a replayed report feeds only
// consumers of the scalar fields (StageCacheable's report rule gates
// out the configs whose callers need more).
func DecodeReportArtifact(cfg Config, data []byte) (*Report, error) {
	d := &dec{data: data}
	d.magic(reportMagic, reportCodecVersion)
	r := &Report{Config: cfg}
	r.Latency = d.int()
	r.Area = d.int()
	r.CriticalLatency = d.int()
	r.PermLatency = d.int()
	r.Stalls = d.int()
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("core: decode report artifact: %w", err)
	}
	r.derive()
	return r, nil
}

// ValidateStageArtifact checks that body decodes as an artifact of the
// given stage, without retaining the result. The store's scrub pass
// runs it on every stage record.
func ValidateStageArtifact(st Stage, body []byte) error {
	switch st {
	case StageBuild:
		_, err := DecodeBuildArtifact(body)
		return err
	case StagePlace:
		_, err := DecodePlaceArtifact(body)
		return err
	case StageSim:
		_, err := DecodeSimArtifact(body)
		return err
	case StageReport:
		_, err := DecodeReportArtifact(Config{}, body)
		return err
	}
	return fmt.Errorf("core: unknown stage %d", st)
}
