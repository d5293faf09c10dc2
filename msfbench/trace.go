package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Every span the traced passes record carries one of these;
// the self-time table groups by them, and the structural spans' own
// time (work between layer calls: engine bookkeeping, memo waits) is
// the remainder labelled "other".
const (
	spanPass          = "pass"
	spanPoint         = "point"
	spanBuildBravyi   = "build.bravyi"
	spanBuildStitch   = "build.stitch"
	spanFrontend      = "frontend"
	spanPlaceFD       = "place.fd"
	spanPlaceGP       = "place.gp"
	spanPlaceOther    = "place.other"
	spanSim           = "sim"
	spanAssemble      = "assemble"
	spanPlan          = "plan"
	spanPlanBuild     = "plan.build"
	spanPlanCritical  = "plan.critical_path"
	spanPlanSystemSim = "plan.system_sim"
	spanPlanLayers    = "plan.layers"
	spanRoundTrip     = "roundtrip"
	spanCodecEncode   = "codec.encode"
	spanCodecDecode   = "codec.decode"
	spanStorePut      = "store.put"
	spanStoreGet      = "store.get"
	spanServeFirst    = "serve.first"
	spanServeRepeat   = "serve.repeat"
)

// layerNames lists the self-time table's rows in a fixed order; "other"
// collects the self time of the structural spans (point, roundtrip,
// plan.layers).
var layerNames = []string{
	spanBuildBravyi, spanBuildStitch, spanFrontend,
	spanPlaceFD, spanPlaceGP, spanPlaceOther, spanSim, spanAssemble,
	spanPlan, spanPlanBuild, spanPlanCritical, spanPlanSystemSim,
	spanCodecEncode, spanCodecDecode, spanStorePut, spanStoreGet,
	spanServeFirst, spanServeRepeat, "other",
}

// structural spans carry no layer of their own. The pass span is the
// wall-clock envelope around parallel roots and joins no table.
var structural = map[string]bool{spanPoint: true, spanRoundTrip: true, spanPlanLayers: true}

// span is one recorded interval. Times are offsets from the tracer's
// origin. Point groups every span of one grid point, provision or
// request; lane is the display track (one per concurrent worker).
type span struct {
	name       string
	id, parent int64
	point      int64
	lane       int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pass nil and pay one branch.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
	lanes  chan int
}

func newTracer(workers int) *tracer {
	// One lane per worker; lane 0 is reserved for pass envelopes.
	t := &tracer{origin: time.Now(), lanes: make(chan int, workers)}
	for i := 0; i < workers; i++ {
		t.lanes <- i + 1
	}
	return t
}

// scope is an open span plus what its children need to attach to it.
type scope struct {
	t      *tracer
	id     int64
	parent int64
	point  int64
	lane   int
	name   string
	start  time.Duration
}

// root opens a top-level span on the calling goroutine's own lane. The
// lane is held until end, so concurrent roots never share a track.
func (t *tracer) root(name string, point int64) *scope {
	if t == nil {
		return nil
	}
	lane := <-t.lanes
	return t.open(name, 0, point, lane)
}

func (t *tracer) open(name string, parent, point int64, lane int) *scope {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &scope{t: t, id: id, parent: parent, point: point, lane: lane, name: name, start: time.Since(t.origin)}
}

// child opens a span nested in s.
func (s *scope) child(name string) *scope {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.id, s.point, s.lane)
}

// pass opens the wall-clock envelope of one traced pass on lane 0.
func (t *tracer) pass() *scope {
	if t == nil {
		return nil
	}
	return t.open(spanPass, 0, 0, 0)
}

// end closes s and returns its duration.
func (s *scope) end() time.Duration {
	if s == nil {
		return 0
	}
	e := time.Since(s.t.origin)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{name: s.name, id: s.id, parent: s.parent, point: s.point, lane: s.lane, start: s.start, end: e})
	s.t.mu.Unlock()
	if s.parent == 0 && s.lane != 0 {
		s.t.lanes <- s.lane
	}
	return e - s.start
}

// do runs fn inside a child span of s (or bare when s is nil).
func (s *scope) do(name string, fn func()) {
	c := s.child(name)
	fn()
	c.end()
}

// totals sums span durations by name.
func (t *tracer) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.name] += s.end - s.start
	}
	return out
}

// selfTimes returns each layer's self time — a span's duration minus the
// part its direct children cover — with structural spans folded into
// "other". Children of one span run sequentially on its goroutine, so
// their durations never overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.name == spanPass {
			continue
		}
		self := s.end - s.start - childSum[s.id]
		if self < 0 {
			self = 0
		}
		name := s.name
		if structural[name] {
			name = "other"
		}
		out[name] += self
	}
	return out
}

// shares converts self times into fractions of their sum.
func shares(self map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := map[string]float64{}
	for _, n := range layerNames {
		if total > 0 {
			out[n] = float64(self[n]) / float64(total)
		} else {
			out[n] = 0
		}
	}
	return out
}

// writeSelfTable prints the self-time table, largest share first.
func writeSelfTable(w io.Writer, self map[string]time.Duration) {
	sh := shares(self)
	names := append([]string(nil), layerNames...)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-20s %12s %8s\n", "layer", "self_s", "share")
	for _, n := range names {
		if self[n] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-20s %12.4f %7.1f%%\n", n, self[n].Seconds(), 100*sh[n])
	}
}

// chromeEvent is one complete ("X") event of the Chrome Trace Event
// format, which Perfetto and chrome://tracing read offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome Trace Event JSON to path and
// the self-time table next to it (path with a .txt suffix).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "point": s.point},
		})
	}
	t.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	body, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	f, err := os.Create(path + ".txt")
	if err != nil {
		return err
	}
	writeSelfTable(f, t.selfTimes())
	return f.Close()
}
