package corpus

import (
	"compress/gzip"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"perspectron/internal/diskfaults"
	"perspectron/internal/trace"
)

// diskFormat versions the on-disk artifact encoding; bump it when the
// Dataset shape changes so stale caches are ignored rather than misread.
const diskFormat = 1

// artifact is the on-disk envelope around a dataset. gob preserves float64
// bit patterns exactly, so a reloaded dataset is byte-identical to the
// collection that produced it.
type artifact struct {
	Format  int
	Key     string
	Dataset *trace.Dataset
}

func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

func (s *Store) path(dir, key string) string {
	return filepath.Join(dir, cacheFileName(key))
}

// orphanTmpAge is how old a leftover temp file must be before the sweep
// removes it. Fresh temp files may belong to a concurrent writer mid-rename;
// anything this stale is debris from a crashed or killed process.
const orphanTmpAge = time.Hour

// SweepOrphans removes temp files abandoned by failed atomic writes —
// "<key>.dataset.gob.gz.tmp-<rand>" debris a crashed process left next to
// the artifacts.
// Only files older than orphanTmpAge go; a temp file younger than that may
// be a live concurrent writer's. It returns the number removed. SetCacheDir
// runs a sweep automatically; long-running services may call it
// periodically.
func SweepOrphans(dir string) int {
	if dir == "" {
		return 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-orphanTmpAge)
	removed := 0
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			removed++
		}
	}
	return removed
}

// ctxReader aborts a stream read once ctx ends, so a cancelled caller is not
// held behind a slow or hung disk.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// ctxWriter is the write-side analogue of ctxReader.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// load tries the on-disk cache; a miss, a corrupt file, a key mismatch or a
// cancelled ctx all return a nil dataset (the caller then collects fresh —
// or returns promptly if its ctx is gone). On a hit, bytesRead is the
// compressed artifact size, for cache-traffic accounting.
func (s *Store) load(ctx context.Context, dir, key string) (ds *trace.Dataset, bytesRead int64) {
	if dir == "" || ctx.Err() != nil {
		return nil, 0
	}
	f, err := os.Open(s.path(dir, key))
	if err != nil {
		return nil, 0
	}
	defer f.Close()
	zr, err := gzip.NewReader(ctxReader{ctx, f})
	if err != nil {
		return nil, 0
	}
	defer zr.Close()
	var a artifact
	if err := gob.NewDecoder(zr).Decode(&a); err != nil {
		return nil, 0
	}
	if a.Format != diskFormat || a.Key != key || a.Dataset == nil {
		return nil, 0
	}
	if st, err := f.Stat(); err == nil {
		bytesRead = st.Size()
	}
	return a.Dataset, bytesRead
}

// save writes the dataset atomically through diskfaults.WriteFileAtomic
// (temp file + fsync + rename + directory fsync, the checkpoint path's
// durability discipline) so a crashed or concurrent writer never leaves a
// torn artifact behind — and a completed one survives power loss —
// returning the compressed bytes persisted. Failures — including a ctx
// cancelled mid-write or an injected disk fault (site "corpus") — are
// silent (returning 0) and leave no temp file: the disk cache is an
// accelerator, not a source of truth.
func (s *Store) save(ctx context.Context, dir, key string, ds *trace.Dataset) (bytesWritten int64) {
	if ctx.Err() != nil {
		return 0
	}
	err := diskfaults.WriteFileAtomic(diskfaults.SiteCorpus, s.path(dir, key), func(w io.Writer) error {
		cw := &countWriter{w: w}
		zw := gzip.NewWriter(ctxWriter{ctx, cw})
		err := gob.NewEncoder(zw).Encode(artifact{Format: diskFormat, Key: key, Dataset: ds})
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		bytesWritten = cw.n
		if err == nil {
			err = ctx.Err() // cancelled after the last write: no rename
		}
		return err
	})
	if err != nil {
		return 0
	}
	return bytesWritten
}

// countWriter counts the bytes its writer accepts.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// cacheFileName returns the file name a key is stored under.
func cacheFileName(key string) string {
	return fmt.Sprintf("%s.dataset.gob.gz", key)
}
