// Package corpus is the collect-once artifact engine between the simulator
// and every consumer of training data. Datasets (trace.Collect outputs) and
// Prepared bundles (dataset + encoder + feature selection) are memoized
// in-process, keyed by a content fingerprint of (workload set,
// CollectConfig); an optional on-disk cache extends the reuse across
// process invocations. Collection is deterministic for a fixed fingerprint
// (per-run seeds derive from the config seed), so a cache hit is
// byte-identical to a fresh collection — the store trades nothing but the
// simulation time.
//
// Callers share the process-wide Default store unless they need isolation
// (tests use private stores to count collections). Cached datasets are
// shared across consumers and must be treated as immutable; derive with
// Dataset.Filter rather than mutating samples in place.
package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"perspectron/internal/encoding"
	"perspectron/internal/features"
	"perspectron/internal/sim"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Prepared bundles a dataset with its maximum matrix M (trace.Maxima) and
// feature selection — the shared front half of training and most
// experiments.
type Prepared struct {
	DS  *trace.Dataset
	Enc *encoding.Encoding
	Sel features.Selection
}

// Telemetry series names the store accounts under. Everything Stats reports
// is derived from these counters — the registry is the single accounting
// path, and pointing a store at the process-wide registry (SetRegistry)
// makes the same numbers scrapable from /metrics.
const (
	MetricDatasetsCollected = `perspectron_corpus_datasets_total{source="collect"}`
	MetricDatasetsMemory    = `perspectron_corpus_datasets_total{source="memory"}`
	MetricDatasetsDisk      = `perspectron_corpus_datasets_total{source="disk"}`
	MetricPreparedComputed  = `perspectron_corpus_prepared_total{source="computed"}`
	MetricPreparedMemory    = `perspectron_corpus_prepared_total{source="memory"}`
	MetricDiskReadBytes     = "perspectron_corpus_disk_read_bytes_total"
	MetricDiskWrittenBytes  = "perspectron_corpus_disk_written_bytes_total"
	MetricRunsDropped       = "perspectron_corpus_runs_dropped_total"
	MetricRunRetries        = "perspectron_corpus_run_retries_total"
)

// Stats is a snapshot of the store's traffic: how many datasets were
// actually simulated versus served from memory or disk, the same split for
// prepared bundles (encoder + feature selection), disk-cache bytes moved,
// and the collection-health tallies (runs retried after a panic, runs
// dropped). It is read out of the store's telemetry registry — there is no
// second accounting path.
type Stats struct {
	Collections int // datasets simulated from scratch
	MemoryHits  int // datasets served from the in-process map
	DiskHits    int // datasets loaded from the on-disk cache
	Prepared    int // encoder+selection bundles computed
	PreparedHit int // bundles served from memory

	DiskReadBytes    int64 // compressed artifact bytes loaded from disk
	DiskWrittenBytes int64 // compressed artifact bytes persisted to disk
	RunsDropped      int   // collection runs abandoned (Dataset.Dropped)
	RunRetries       int   // collection run attempts that were retried
}

// Sub returns the component-wise difference s - o, for measuring the
// traffic of one span of work against a long-lived store.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Collections:      s.Collections - o.Collections,
		MemoryHits:       s.MemoryHits - o.MemoryHits,
		DiskHits:         s.DiskHits - o.DiskHits,
		Prepared:         s.Prepared - o.Prepared,
		PreparedHit:      s.PreparedHit - o.PreparedHit,
		DiskReadBytes:    s.DiskReadBytes - o.DiskReadBytes,
		DiskWrittenBytes: s.DiskWrittenBytes - o.DiskWrittenBytes,
		RunsDropped:      s.RunsDropped - o.RunsDropped,
		RunRetries:       s.RunRetries - o.RunRetries,
	}
}

// String renders the one-line cache summary the experiments CLI prints.
// Collection-health tallies are appended only when something went wrong.
func (s Stats) String() string {
	out := fmt.Sprintf("%d collected, %d reused in-process, %d loaded from disk (selections: %d computed, %d reused)",
		s.Collections, s.MemoryHits, s.DiskHits, s.Prepared, s.PreparedHit)
	if s.RunRetries > 0 || s.RunsDropped > 0 {
		out += fmt.Sprintf("; %d runs retried, %d dropped", s.RunRetries, s.RunsDropped)
	}
	return out
}

// Store is a content-addressed artifact cache. The zero value is not ready;
// use NewStore. All methods are safe for concurrent use, and concurrent
// requests for the same key collapse into one collection.
type Store struct {
	mu       sync.Mutex
	dir      string // on-disk cache directory ("" = memory only)
	datasets map[string]*trace.Dataset
	prepared map[string]*Prepared
	inflight map[string]*sync.WaitGroup
	reg      *telemetry.Registry // traffic accounting; never nil

	// collect is the collection backend, replaceable in tests: one
	// Dataset per config, in order. It receives the caller's context so a
	// cancelled request stops scheduling simulation runs.
	collect func(context.Context, []workload.Program, ...trace.CollectConfig) []*trace.Dataset
}

// NewStore returns an empty in-memory store with a private telemetry
// registry for its traffic counters.
func NewStore() *Store { return newStore(telemetry.NewRegistry()) }

func newStore(reg *telemetry.Registry) *Store {
	return &Store{
		datasets: map[string]*trace.Dataset{},
		prepared: map[string]*Prepared{},
		inflight: map[string]*sync.WaitGroup{},
		reg:      reg,
		collect:  trace.Collect,
	}
}

var defaultStore = newStore(telemetry.Get())

// Default returns the process-wide store shared by the public Train APIs,
// the experiments, and the CLIs. Its traffic counters record into the
// process telemetry registry, so the corpus series appear in every
// exposition.
func Default() *Store { return defaultStore }

// SetCacheDir enables the on-disk cache under dir (creating it if needed);
// an empty dir disables disk caching. Entries are written after each fresh
// collection and consulted before simulating. Stale temp files from failed
// atomic writes are swept on the way in (see SweepOrphans).
func (s *Store) SetCacheDir(dir string) error {
	if dir != "" {
		if err := ensureDir(dir); err != nil {
			return err
		}
		SweepOrphans(dir)
	}
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
	return nil
}

// SetRegistry redirects the store's traffic accounting to reg. Counters
// already accumulated in the previous registry are not migrated. Default
// already records into the process registry; SetRegistry remains only
// because the benchmark harness (bench/child.go) still calls it. Delete it
// when that file is next edited.
func (s *Store) SetRegistry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
}

// registry returns the store's current accounting registry. Sections that
// already hold s.mu must use s.reg directly.
func (s *Store) registry() *telemetry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}

// Stats returns a snapshot of the store's traffic counters, read back from
// its telemetry registry.
func (s *Store) Stats() Stats {
	reg := s.registry()
	return Stats{
		Collections:      int(reg.CounterValue(MetricDatasetsCollected)),
		MemoryHits:       int(reg.CounterValue(MetricDatasetsMemory)),
		DiskHits:         int(reg.CounterValue(MetricDatasetsDisk)),
		Prepared:         int(reg.CounterValue(MetricPreparedComputed)),
		PreparedHit:      int(reg.CounterValue(MetricPreparedMemory)),
		DiskReadBytes:    int64(reg.CounterValue(MetricDiskReadBytes)),
		DiskWrittenBytes: int64(reg.CounterValue(MetricDiskWrittenBytes)),
		RunsDropped:      int(reg.CounterValue(MetricRunsDropped)),
		RunRetries:       int(reg.CounterValue(MetricRunRetries)),
	}
}

// featureSpaceID fingerprints the simulated machine's counter inventory
// once per process: a cached dataset is only valid for the feature space it
// was collected on, so the dataset key incorporates this.
var featureSpaceID = sync.OnceValue(func() string {
	m := sim.NewMachine()
	h := sha256.New()
	for _, name := range m.Reg.Names() {
		fmt.Fprintln(h, name)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// DatasetKey fingerprints a collection request: the workload identities (in
// order), every output-relevant CollectConfig field, and the machine's
// counter inventory. Workloads are identified by their Info — the generator
// name encodes every behavioural parameter (channel, bandwidth factor,
// polymorphic variant), and per-run randomness derives from cfg.Seed, so
// equal keys collect byte-identical datasets.
func DatasetKey(progs []workload.Program, cfg trace.CollectConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "corpus/v1 features=%s\n", featureSpaceID())
	fmt.Fprintf(h, "insts=%d interval=%d seed=%d runs=%d timeout=%s retries=%d\n",
		cfg.MaxInsts, cfg.Interval, cfg.Seed, cfg.Runs, cfg.Timeout, cfg.Retries)
	for _, p := range progs {
		i := p.Info()
		fmt.Fprintf(h, "%s|%s|%s|%d\n", i.Name, i.Category, i.Channel, i.Label)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Dataset returns the collected dataset for (progs, cfg), simulating it at
// most once per key: repeat requests are served from memory, then from the
// on-disk cache when one is configured. Deterministic seeding makes every
// path byte-identical.
func (s *Store) Dataset(progs []workload.Program, cfg trace.CollectConfig) *trace.Dataset {
	return s.DatasetCtx(context.Background(), progs, cfg)
}

// DatasetCtx is Dataset under a context: cancellation stops scheduling new
// simulation runs (the collection backend observes ctx) and skips disk-cache
// reads and writes. A cancelled request still returns whatever partial
// dataset the backend produced — callers that care should check ctx.Err().
// It is DatasetsCtx for one config.
func (s *Store) DatasetCtx(ctx context.Context, progs []workload.Program, cfg trace.CollectConfig) *trace.Dataset {
	return s.DatasetsCtx(ctx, progs, cfg)[0]
}

// DatasetsCtx returns the dataset of each config over progs, in order,
// simulating each at most once per key. A key resolves from memory, then
// from the on-disk cache; the keys left are collected together in one
// trace.Collect pass, which simulates runs the configs share only once,
// and each dataset is memoized and saved under its own key. Concurrent
// requests for a key collapse into one collection. Cancellation behaves as
// in DatasetCtx.
func (s *Store) DatasetsCtx(ctx context.Context, progs []workload.Program, cfgs ...trace.CollectConfig) []*trace.Dataset {
	out := make([]*trace.Dataset, len(cfgs))
	keys := make([]string, len(cfgs))
	first := map[string]int{} // key -> its first config: a repeated config resolves once
	for i, c := range cfgs {
		keys[i] = DatasetKey(progs, c)
		if _, ok := first[keys[i]]; !ok {
			first[keys[i]] = i
		}
	}
	for {
		// Take what memory holds and claim what nobody is resolving;
		// wait for the rest only after resolving the claimed keys, so two
		// requests claiming each other's keys cannot deadlock.
		var mine []int
		var busy []*sync.WaitGroup
		s.mu.Lock()
		for i, k := range keys {
			if first[k] != i || out[i] != nil {
				continue
			}
			if ds, ok := s.datasets[k]; ok {
				s.reg.Counter(MetricDatasetsMemory).Inc()
				out[i] = ds
			} else if wg, ok := s.inflight[k]; ok {
				busy = append(busy, wg)
			} else {
				wg := &sync.WaitGroup{}
				wg.Add(1)
				s.inflight[k] = wg
				mine = append(mine, i)
			}
		}
		dir := s.dir
		s.mu.Unlock()

		if len(mine) > 0 {
			s.resolve(ctx, dir, progs, cfgs, keys, mine, out)
		}
		if len(busy) == 0 {
			break
		}
		for _, wg := range busy {
			wg.Wait() // another request is resolving this key
		}
	}
	for i, k := range keys {
		out[i] = out[first[k]]
	}
	return out
}

// resolve fills out[i] for the claimed configs mine: from the on-disk
// cache where it holds the key, else from one collection of all the
// missing configs. It memoizes and persists each complete dataset under its
// own key, then releases the claims.
func (s *Store) resolve(ctx context.Context, dir string, progs []workload.Program, cfgs []trace.CollectConfig, keys []string, mine []int, out []*trace.Dataset) {
	reg := s.registry()
	fromDisk := map[int]bool{}
	var missing []trace.CollectConfig
	var at []int // missing[j] is cfgs[at[j]]
	for _, i := range mine {
		if ds, readBytes := s.load(ctx, dir, keys[i]); ds != nil {
			reg.Counter(MetricDiskReadBytes).Add(uint64(readBytes))
			out[i], fromDisk[i] = ds, true
		} else {
			missing, at = append(missing, cfgs[i]), append(at, i)
		}
	}
	if len(missing) > 0 {
		for j, ds := range s.collect(ctx, progs, missing...) {
			out[at[j]] = ds
			reg.Counter(MetricRunsDropped).Add(uint64(len(ds.Dropped)))
			reg.Counter(MetricRunRetries).Add(uint64(ds.Retried))
		}
	}
	// A cancelled collection is partial: never persist it, and keep it out
	// of the memory cache too — a later caller with a live context must
	// get a complete collection.
	cancelled := ctx.Err() != nil
	if dir != "" && !cancelled {
		for _, i := range at {
			if cacheable(out[i], cfgs[i]) {
				reg.Counter(MetricDiskWrittenBytes).Add(uint64(s.save(ctx, dir, keys[i], out[i])))
			}
		}
	}
	s.mu.Lock()
	var done []*sync.WaitGroup
	for _, i := range mine {
		switch {
		case fromDisk[i]:
			s.datasets[keys[i]] = out[i]
			s.reg.Counter(MetricDatasetsDisk).Inc()
		case !cancelled:
			s.datasets[keys[i]] = out[i]
			s.reg.Counter(MetricDatasetsCollected).Inc()
		}
		done = append(done, s.inflight[keys[i]])
		delete(s.inflight, keys[i])
	}
	s.mu.Unlock()
	for _, wg := range done {
		wg.Done()
	}
}

// cacheable reports whether a dataset may be persisted: runs dropped by
// timeouts or panics make the artifact wall-clock-dependent, so only
// complete, deterministic collections go to disk.
func cacheable(ds *trace.Dataset, cfg trace.CollectConfig) bool {
	return len(ds.Dropped) == 0 && cfg.Timeout == 0
}

// selKey fingerprints a feature-selection configuration.
func selKey(datasetKey string, selCfg features.SelectConfig) string {
	return fmt.Sprintf("%s/sel:g=%v,m=%d,mi=%v",
		datasetKey, selCfg.GroupThreshold, selCfg.MaxFeatures, selCfg.MinMI)
}

// PreparedCtx returns the dataset for (progs, cfg) together with its
// trained encoder and the paper's feature selection under selCfg, computing
// each layer at most once: the dataset via DatasetCtx, the encoder +
// selection memoized per (dataset, selCfg). ctx is threaded through
// collection and selection, so their telemetry spans nest under the
// caller's (e.g. a train span) instead of starting a fresh trace.
func (s *Store) PreparedCtx(ctx context.Context, progs []workload.Program, cfg trace.CollectConfig, selCfg features.SelectConfig) *Prepared {
	dsKey := DatasetKey(progs, cfg)
	key := selKey(dsKey, selCfg)
	s.mu.Lock()
	if p, ok := s.prepared[key]; ok {
		s.reg.Counter(MetricPreparedMemory).Inc()
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()

	ds := s.DatasetCtx(ctx, progs, cfg)
	m := trace.Maxima(ds)
	X, y := trace.Scaled(m, ds, nil)
	sel := features.Select(ctx, X, y, ds.Components, selCfg)
	p := &Prepared{DS: ds, Enc: m, Sel: sel}

	s.mu.Lock()
	if prev, ok := s.prepared[key]; ok { // concurrent preparer won
		s.mu.Unlock()
		return prev
	}
	s.prepared[key] = p
	s.reg.Counter(MetricPreparedComputed).Inc()
	s.mu.Unlock()
	return p
}
