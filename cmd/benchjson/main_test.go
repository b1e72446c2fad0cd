package main

import (
	"runtime"
	"strings"
	"testing"
)

func TestStampEnv(t *testing.T) {
	rep, err := parse(strings.NewReader("goos: linux\nBenchmarkX-2   5   100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	stampEnv(rep)
	if rep.NumCPU != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("nproc/gomaxprocs = %d/%d, want %d/%d", rep.NumCPU, rep.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if rep.GoVersion != runtime.Version() {
		t.Fatalf("go version = %q, want %q", rep.GoVersion, runtime.Version())
	}
	// Outside a git checkout (an exported tree) the revision stays empty.
	if rev := strings.TrimSuffix(rep.Revision, "-dirty"); rep.Revision != "" && len(rev) != 40 {
		t.Fatalf("git revision = %q, want a commit hash", rep.Revision)
	}
}
