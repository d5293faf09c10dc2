package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
)

// serveMixed drives a freshly booted msfud (empty -store directory)
// with a closed loop of nproc connections, each waiting for its reply
// before sending the next request. The loop replays a fixed, seeded
// sequence of /v1/optimize requests for cheap non-annealing points,
// drawn the way the repository's load generator (cmd/msfuload, run with
// its defaults -dup 0.7 -hot 4 in the README and the CI soak) draws
// them: 70% from a hot set of four points, the rest uniformly from a
// large universe. More distinct points are asked for than the service's
// 4096-entry memo holds, so the memo resets late in the sequence and
// the repeats that follow are answered by the disk tier.
type serveMixed struct {
	workers int
	bin     string
	tmpRoot string

	dir    string
	cmd    *exec.Cmd
	done   chan error
	base   string
	client *http.Client
}

const (
	serveRequests = 20000
	// serveDupShare and serveHot are msfuload's -dup and -hot defaults.
	serveDupShare = 0.7
	serveHot      = 4
	// serveSeedSpan is how many point seeds each request shape takes in
	// the timed universe (23 shapes x 520 seeds = 11960 points, of which
	// the ~6000 cold draws of a sequence hit ~4700); warm-up points use
	// seeds from warmSeedBase up, so no warm-up point is ever a timed
	// point.
	serveSeedSpan = 520
	warmSeedBase  = 1 << 30
	serveWarmups  = 256
	serveSamples  = 12
)

// optimizeRequest is the /v1/optimize body (the fields this workload
// sets).
type optimizeRequest struct {
	Capacity int    `json:"capacity"`
	Levels   int    `json:"levels"`
	Reuse    bool   `json:"reuse,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// optimizeReply is msfud's reply body, field for field, so a reference
// computed in-process can be encoded to the exact bytes the service
// must send.
type optimizeReply struct {
	Strategy           string  `json:"strategy"`
	Latency            int     `json:"latency"`
	Area               int     `json:"area"`
	Volume             float64 `json:"volume"`
	CriticalLatency    int     `json:"critical_latency"`
	CriticalVolume     float64 `json:"critical_volume"`
	PermutationLatency int     `json:"permutation_latency,omitempty"`
}

// serveShapes are the request shapes: single-level factories under the
// three cheap mappers and the smallest two-level factory under every
// non-annealing mapper and both reuse policies.
var serveShapes = func() []optimizeRequest {
	var out []optimizeRequest
	for _, c := range []int{2, 4, 6, 8, 10} {
		for _, s := range []string{"random", "line", "gp"} {
			out = append(out, optimizeRequest{Capacity: c, Levels: 1, Strategy: s})
		}
	}
	for _, s := range []string{"random", "line", "gp", "hs"} {
		for _, reuse := range []bool{false, true} {
			out = append(out, optimizeRequest{Capacity: 4, Levels: 2, Strategy: s, Reuse: reuse})
		}
	}
	return out
}()

// serveSequence builds the request sequence for seed: n requests, each
// drawn from a seeded hot set of serveHot points with probability dup,
// otherwise uniformly from the universe of shapes x serveSeedSpan point
// seeds (offset by seedBase). repeat marks requests for a point asked
// for earlier in the sequence.
func serveSequence(seed int64, n int, dup float64, seedBase int64) (reqs []optimizeRequest, repeat []bool) {
	rng := rand.New(rand.NewSource(seed))
	point := func() optimizeRequest {
		u := rng.Intn(len(serveShapes) * serveSeedSpan)
		r := serveShapes[u%len(serveShapes)]
		r.Seed = seedBase + int64(u/len(serveShapes))
		return r
	}
	hot := make([]optimizeRequest, serveHot)
	for i := range hot {
		hot[i] = point()
	}
	seen := map[optimizeRequest]bool{}
	for i := 0; i < n; i++ {
		r := point()
		if rng.Float64() < dup {
			r = hot[rng.Intn(len(hot))]
		}
		reqs = append(reqs, r)
		repeat = append(repeat, seen[r])
		seen[r] = true
	}
	return reqs, repeat
}

// coreConfig lowers a request to the pipeline config msfud evaluates
// for it (the public API's mapping with an explicit strategy).
func (r optimizeRequest) coreConfig() (core.Config, error) {
	p, err := bravyi.ParamsForCapacity(r.Capacity, r.Levels)
	if err != nil {
		return core.Config{}, err
	}
	strat := map[string]core.Strategy{
		"random": core.StrategyRandom, "line": core.StrategyLinear,
		"gp": core.StrategyGraphPartition, "hs": core.StrategyStitch,
	}[r.Strategy]
	return core.Config{K: p.K, Levels: p.Levels, Reuse: r.Reuse, Strategy: strat, Seed: r.Seed}, nil
}

func (w *serveMixed) setup(warmSeed int64) error {
	dir, err := tempDir(w.tmpRoot, "msfud-")
	if err != nil {
		return err
	}
	w.dir = dir
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "msfud.log"))
	if err != nil {
		return err
	}
	n := fmt.Sprint(w.workers)
	cmd := exec.Command(w.bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store", filepath.Join(dir, "store"), "-parallel", n, "-max-inflight", n)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start msfud: %w", err)
	}
	logf.Close()
	w.cmd = cmd
	w.done = make(chan error, 1)
	go func() { w.done <- cmd.Wait() }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.workers, MaxConnsPerHost: w.workers,
	}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			w.base = "http://" + strings.TrimSpace(string(b))
			if _, err := w.stats(); err == nil {
				break
			}
		}
		select {
		case err := <-w.done:
			w.done <- err
			return fmt.Errorf("msfud exited during boot: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("msfud did not come up within 60s")
		}
	}
	// Warm the service's compute, store and HTTP paths on points whose
	// seeds lie outside the timed universe.
	reqs, _ := serveSequence(warmSeed, serveWarmups, 0, warmSeedBase)
	for _, r := range reqs {
		code, body, err := w.post(r)
		if err == nil && code/100 != 2 {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
		}
		if err != nil {
			return fmt.Errorf("msfud warm-up: %w", err)
		}
	}
	return nil
}

// post sends one /v1/optimize request and returns the reply body.
func (w *serveMixed) post(r optimizeRequest) (int, []byte, error) {
	body, _ := json.Marshal(r)
	resp, err := w.client.Post(w.base+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stats scrapes /v1/stats.
func (w *serveMixed) stats() (map[string]any, error) {
	resp, err := w.client.Get(w.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var m map[string]any
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (w *serveMixed) pass(seed int64, tr *tracer, _ *layerCounts, verify bool) (*passOut, error) {
	out := &passOut{quality: map[string]float64{}, counters: map[string]float64{}}
	reqs, repeat := serveSequence(seed, serveRequests, serveDupShare, 0)
	bodies := make([][]byte, len(reqs))
	lat := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	p := tr.pass()
	for c := 0; c < w.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				name := spanServeFirst
				if repeat[i] {
					name = spanServeRepeat
				}
				root := tr.root(name, int64(i))
				t0 := time.Now()
				code, body, err := w.post(reqs[i])
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				root.end()
				if err == nil && code/100 != 2 {
					err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
				}
				errs[i], bodies[i] = err, body
			}
		}()
	}
	wg.Wait()
	p.end()
	out.wall = since(t0)
	// The service does the work; it is fresh per pass, so its peak
	// resident set is the pass's.
	out.rss = pidPeakRSSMB(w.cmd.Process.Pid)

	firstBody := map[optimizeRequest][]byte{}
	var vols []float64
	for i, r := range reqs {
		out.attempted++
		err := errs[i]
		var rep optimizeReply
		if err == nil {
			err = json.Unmarshal(bodies[i], &rep)
		}
		if err == nil {
			err = checkReply(rep)
		}
		if err == nil {
			if prev, ok := firstBody[r]; ok && !bytes.Equal(prev, bodies[i]) {
				err = fmt.Errorf("repeat of %+v answered %q, first answer was %q", r, bodies[i], prev)
			} else if !ok {
				firstBody[r] = bodies[i]
			}
		}
		if err != nil {
			out.fail(fmt.Errorf("request %d %+v: %w", i, r, err))
			continue
		}
		vols = append(vols, rep.Volume)
		out.digests = append(out.digests, sha256.Sum256(bodies[i]))
		out.lat = append(out.lat, lat[i])
		if repeat[i] {
			out.repeat = append(out.repeat, lat[i])
		} else {
			out.first = append(out.first, lat[i])
		}
	}
	out.quality["volume_geomean"] = geomean(vols)
	if err := w.checkSample(seed, reqs, bodies, verify); err != nil {
		out.attempted++
		out.fail(err)
	}

	st, err := w.stats()
	if err != nil {
		return nil, err
	}
	cache, _ := st["cache"].(map[string]any)
	adm, _ := st["admission"].(map[string]any)
	sf, _ := st["singleflight"].(map[string]any)
	num := func(m map[string]any, k string) float64 { v, _ := m[k].(float64); return v }
	out.counters["serve.memory_hits"] = num(cache, "memory_hits")
	out.counters["serve.disk_hits"] = num(cache, "disk_hits")
	out.counters["serve.computes"] = num(sf, "leaders")
	out.counters["serve.rejected"] = num(adm, "queue_rejected") + num(adm, "rate_limited")
	return out, nil
}

// checkReply applies the per-point checks to a reply.
func checkReply(r optimizeReply) error {
	switch {
	case r.Latency <= 0 || r.Area <= 0:
		return fmt.Errorf("non-positive latency %d or area %d", r.Latency, r.Area)
	case r.Latency < r.CriticalLatency:
		return fmt.Errorf("latency %d below critical latency %d", r.Latency, r.CriticalLatency)
	case r.Volume != float64(r.Latency)*float64(r.Area):
		return fmt.Errorf("volume %g != latency %d x area %d", r.Volume, r.Latency, r.Area)
	}
	return nil
}

// checkSample recomputes a seeded sample of the sequence's points
// in-process with core.RunContext and requires each reply to be
// byte-equal to the reference encoded the way msfud encodes it. With
// verify set, the sample's braids are also audited for overlaps.
func (w *serveMixed) checkSample(seed int64, reqs []optimizeRequest, bodies [][]byte, verify bool) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for j := 0; j < serveSamples; j++ {
		i := rng.Intn(len(reqs))
		var rep *core.Report
		cfg, err := reqs[i].coreConfig()
		if err == nil {
			rep, err = core.RunContext(context.Background(), cfg)
		}
		if err != nil {
			return fmt.Errorf("reference for %+v: %w", reqs[i], err)
		}
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(optimizeReply{
			Strategy: rep.Strategy, Latency: rep.Latency, Area: rep.Area, Volume: rep.Volume,
			CriticalLatency: rep.CriticalLatency, CriticalVolume: rep.CriticalVolume,
			PermutationLatency: rep.PermLatency,
		})
		if !bytes.Equal(buf.Bytes(), bodies[i]) {
			return fmt.Errorf("request %d %+v: reply %q differs from in-process reference %q", i, reqs[i], bodies[i], buf.Bytes())
		}
		if verify {
			if err := checkOverlaps(rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// teardown stops the service with
// SIGTERM (graceful drain), waits for it to exit and removes its store.
func (w *serveMixed) teardown() {
	if w.cmd == nil {
		return
	}
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
	w.client.CloseIdleConnections()
	w.cmd = nil
	removeAll(w.dir)
}
