package corpus

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

func TestSweepOrphansRemovesStaleTmpOnly(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, cacheFileName("abc123")+".tmp-999")
	fresh := filepath.Join(dir, cacheFileName("def456")+".tmp-111")
	keep := filepath.Join(dir, cacheFileName("abc123"))
	for _, p := range []string{stale, fresh, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * orphanTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if n := SweepOrphans(dir); n != 1 {
		t.Fatalf("swept %d files, want 1", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the sweep")
	}
	for _, p := range []string{fresh, keep} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sweep removed %s: %v", p, err)
		}
	}
	// Empty dir is a no-op, not a panic.
	if SweepOrphans("") != 0 {
		t.Fatalf("empty dir swept something")
	}
}

func TestSetCacheDirSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, cacheFileName("deadbeef")+".tmp-42")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * orphanTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("SetCacheDir did not sweep the stale temp file")
	}
}

// TestDatasetCtxCancelledSkipsCacheAndMemo: a cancelled request neither
// reads nor writes the disk cache, leaves no temp debris, and its (partial)
// result is not memoized — the next live-context request collects fresh and
// persists normally.
func TestDatasetCtxCancelledSkipsCacheAndMemo(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s.DatasetCtx(cancelled, tinyCorpus(), tinyConfig())

	key := DatasetKey(tinyCorpus(), tinyConfig())
	if _, err := os.Stat(filepath.Join(dir, cacheFileName(key))); !os.IsNotExist(err) {
		t.Fatalf("cancelled collection was persisted")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("cancelled save left temp file %s", e.Name())
		}
	}
	s.mu.Lock()
	memoized := len(s.datasets)
	s.mu.Unlock()
	if memoized != 0 {
		t.Fatalf("cancelled collection was memoized: %d datasets", memoized)
	}

	// A live request after the cancelled one collects fresh and caches.
	collections := 0
	inner := s.collect
	s.collect = func(ctx context.Context, p []workload.Program, c ...trace.CollectConfig) []*trace.Dataset {
		collections++
		return inner(ctx, p, c...)
	}
	ds := s.Dataset(tinyCorpus(), tinyConfig())
	if len(ds.Samples) == 0 || collections != 1 {
		t.Fatalf("post-cancel collection broken: %d samples, %d collections",
			len(ds.Samples), collections)
	}
	if _, err := os.Stat(filepath.Join(dir, cacheFileName(key))); err != nil {
		t.Fatalf("post-cancel collection not persisted: %v", err)
	}
}

func TestCtxReaderWriterHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf [8]byte
	if _, err := (ctxReader{ctx, strings.NewReader("data")}).Read(buf[:]); err == nil {
		t.Fatalf("cancelled ctxReader read succeeded")
	}
	if _, err := (ctxWriter{ctx, os.Stderr}).Write([]byte("x")); err == nil {
		t.Fatalf("cancelled ctxWriter write succeeded")
	}
}
