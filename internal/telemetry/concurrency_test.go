package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRegistrationAndExposition hammers the registry with fresh
// instrument registrations from many goroutines while concurrently scraping
// /metrics and /metrics.json. Under -race this pins the locking; the
// assertions pin that scrapes are never torn (every rendered line is
// well-formed, no family interleaving) and that series within each scrape
// appear in stable canonical (sorted) order even while the instrument set is
// still growing.
func TestConcurrentRegistrationAndExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler(nil)
	const writers, perWriter, scrapes = 8, 200, 40

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				reg.Counter(Name("perspectron_test_ops_total", "writer", fmt.Sprint(w), "i", fmt.Sprint(i%17))).Inc()
				reg.Gauge(Name("perspectron_test_depth", "writer", fmt.Sprint(w))).Set(float64(i))
				reg.Histogram(Name("perspectron_test_lat_seconds", "writer", fmt.Sprint(w)), LatencyBuckets).Observe(float64(i) * 1e-6)
			}
		}(w)
	}

	scrapeErrs := make(chan error, scrapes*2)
	var scrapers sync.WaitGroup
	for s := 0; s < scrapes; s++ {
		scrapers.Add(2)
		go func() {
			defer scrapers.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				scrapeErrs <- fmt.Errorf("/metrics status %d", rec.Code)
				return
			}
			if err := checkPrometheusText(rec.Body.String()); err != nil {
				scrapeErrs <- err
			}
		}()
		go func() {
			defer scrapers.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
			if rec.Code != 200 {
				scrapeErrs <- fmt.Errorf("/metrics.json status %d", rec.Code)
				return
			}
			var snap Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				scrapeErrs <- fmt.Errorf("torn JSON snapshot: %v", err)
			}
		}()
	}
	wg.Wait()
	scrapers.Wait()
	close(scrapeErrs)
	for err := range scrapeErrs {
		t.Error(err)
	}

	// After the dust settles the full instrument set must expose every
	// series exactly once, still canonically ordered.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := checkPrometheusText(rec.Body.String()); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics.json", nil))
	if err := json.Unmarshal(rec2.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Gauges); got != writers {
		t.Fatalf("gauges = %d, want %d", got, writers)
	}
	if got := len(snap.Counters); got != writers*17 {
		t.Fatalf("counters = %d, want %d", got, writers*17)
	}
	var total uint64
	for _, v := range snap.Counters {
		total += v
	}
	if total != writers*perWriter {
		t.Fatalf("counter total = %d, want %d", total, writers*perWriter)
	}
	for name, hs := range snap.Histograms {
		if hs.Count != perWriter {
			t.Fatalf("%s count = %d, want %d", name, hs.Count, perWriter)
		}
	}
}

// checkPrometheusText validates one scrape body: every line is a # TYPE
// comment or a well-formed `series value` sample, each family's # TYPE
// appears exactly once and before its samples, and non-histogram series
// within a family are sorted (the canonical-order contract).
func checkPrometheusText(body string) error {
	typed := map[string]bool{}
	var lastCounterSeries, lastGaugeSeries string
	kind := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("malformed TYPE line %q", line)
			}
			family, typ := parts[2], parts[3]
			if typed[family] {
				return fmt.Errorf("family %s typed twice (interleaved scrape)", family)
			}
			typed[family] = true
			kind[family] = typ
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("malformed sample line %q", line)
		}
		series := line[:sp]
		family, _ := splitName(series)
		// Histogram samples carry _bucket/_sum/_count suffixes on the typed
		// family name.
		family = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if !typed[family] {
			return fmt.Errorf("sample %q before its # TYPE line", line)
		}
		switch kind[family] {
		case "counter":
			if series < lastCounterSeries {
				return fmt.Errorf("counter series out of order: %q after %q", series, lastCounterSeries)
			}
			lastCounterSeries = series
		case "gauge":
			if series < lastGaugeSeries {
				return fmt.Errorf("gauge series out of order: %q after %q", series, lastGaugeSeries)
			}
			lastGaugeSeries = series
		}
	}
	return nil
}

// TestExpositionOrderingStable registers a fixed instrument set and asserts
// two consecutive scrapes render byte-identical modulo values — the series
// ordering is canonical, not map-iteration order.
func TestExpositionOrderingStable(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 50; i++ {
		reg.Counter(Name("perspectron_test_stable_total", "k", fmt.Sprint(i)))
	}
	order := func() []string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		var names []string
		for _, line := range strings.Split(b.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			names = append(names, line[:strings.LastIndexByte(line, ' ')])
		}
		return names
	}
	first := order()
	if !sort.StringsAreSorted(first) {
		t.Fatalf("series not sorted: %v", first)
	}
	for trial := 0; trial < 5; trial++ {
		again := order()
		if len(again) != len(first) {
			t.Fatalf("scrape %d changed series count", trial)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("scrape %d reordered series at %d: %q vs %q", trial, i, first[i], again[i])
			}
		}
	}
}
