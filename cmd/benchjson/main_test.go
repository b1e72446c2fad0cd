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

func TestCheckFasterFactor(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkF/verdict-2   5   250 ns/op\nBenchmarkF/score-2   5   100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"BenchmarkF/score<BenchmarkF/verdict", true},
		{"BenchmarkF/verdict<BenchmarkF/score", false},
		{"BenchmarkF/verdict<3*BenchmarkF/score", true},
		{"BenchmarkF/verdict < 2.5 * BenchmarkF/score", false}, // equal is not below
		{"BenchmarkF/verdict<2*BenchmarkF/score", false},
		{"BenchmarkF/verdict<0*BenchmarkF/score", false},
		{"BenchmarkF/verdict<x*BenchmarkF/score", false},
		{"BenchmarkF/verdict<3*BenchmarkF/missing", false},
		{"BenchmarkF/score<BenchmarkF/verdict,BenchmarkF/verdict<3*BenchmarkF/score", true},
	} {
		if err := checkFaster(rep, tc.spec); (err == nil) != tc.ok {
			t.Errorf("checkFaster(%q) = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}
