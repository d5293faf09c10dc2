package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.sha256 from this run")

// digestFile pins the fixed-seed artifacts: one SHA-256 per output of
// `paperbench all -quick -seed 1 -csv DIR`, stdout first, then each CSV
// by file name.
const digestFile = "testdata/quick_seed1.sha256"

// TestQuickSuiteDigests runs the quick suite in process and compares
// the digest of its stdout and of every CSV it writes against
// digestFile, so any change to a fixed-seed artifact fails here and
// names the artifact. A deliberate change reruns with -update and
// commits the new digests.
//
// The digests are taken on amd64 only. The Go compiler may fuse x*y+z
// into one fused multiply-add on arm64, ppc64le, s390x and riscv64,
// which rounds once instead of twice, so the same source can print
// different last digits there. It emits no FMA on amd64.
func TestQuickSuiteDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("artifact digests are pinned on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"all", "-quick", "-seed", "1", "-csv", dir}, &stdout); code != 0 {
		t.Fatalf("paperbench all -quick -seed 1 exited %d", code)
	}
	got := map[string]string{"stdout": digest(stdout.Bytes())}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = digest(b)
	}

	if *update {
		if err := os.WriteFile(digestFile, []byte(renderDigests(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[name] = sum
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: digest %.12s, pinned %.12s", name, got[name], sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not pinned in %s", name, digestFile)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderDigests writes one "digest  name" line per output, stdout
// first and the CSVs in name order.
func renderDigests(sums map[string]string) string {
	names := make([]string, 0, len(sums))
	for name := range sums {
		if name != "stdout" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range append([]string{"stdout"}, names...) {
		fmt.Fprintf(&b, "%s  %s\n", sums[name], name)
	}
	return b.String()
}

// TestCPUProfileWritten: -cpuprofile leaves a complete profile behind
// once run returns, because run stops the profile and closes its file.
func TestCPUProfileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout bytes.Buffer
	if code := run([]string{"ext-bk15", "-quick", "-cpuprofile", path}, &stdout); code != 0 {
		t.Fatalf("paperbench ext-bk15 -quick -cpuprofile exited %d", code)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}
