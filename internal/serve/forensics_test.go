package serve

// Verdict-forensics tests: end-to-end tracing + attribution through a live
// supervisor, the offline Explain round trip (including tamper detection),
// the flight recorder surface and SLO burn math.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"perspectron"
	"perspectron/internal/telemetry"
)

func TestForensicsEndToEnd(t *testing.T) {
	stages := []string{stageScore, stageLog}
	stageCount := func(name string) uint64 {
		return telemetry.Get().Histogram(name, telemetry.LatencyBuckets).Count()
	}
	before := map[string]uint64{}
	for _, name := range stages {
		before[name] = stageCount(name)
	}
	det, _ := testModels(t)
	var buf bytes.Buffer
	s, err := New(Config{
		detector:        det,
		Workloads:       []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:        60_000,
		MaxEpisodes:     1,
		backoff:         fastBackoff(),
		VerdictLog:      &buf,
		AttrBenignEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetListenAddr("127.0.0.1:9464")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}

	var flaggedRecs []VerdictRecord
	total, attributed, benign := 0, 0, 0
	sc := NewVerdictScanner(bytes.NewReader(buf.Bytes()))
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		total++
		// Tentpole invariant: every verdict record carries a trace ID and
		// stage timestamps.
		want := fmt.Sprintf("%s/%d/%d", rec.Worker, rec.Episode, rec.Sample)
		if rec.Trace != want {
			t.Fatalf("trace = %q, want %q", rec.Trace, want)
		}
		if rec.QueueMs < 0 || rec.BatchMs < 0 || rec.ScoreMs < 0 {
			t.Fatalf("negative stage timing: %+v", rec)
		}
		if stages := rec.QueueMs + rec.BatchMs + rec.ScoreMs; stages > rec.LatencyMs+0.5 {
			t.Fatalf("stage sum %.3fms exceeds total %.3fms", stages, rec.LatencyMs)
		}
		if rec.Attr != nil {
			attributed++
			if len(rec.Attr) > attributionK {
				t.Fatalf("attr has %d contributions, K=%d", len(rec.Attr), attributionK)
			}
			for i := 1; i < len(rec.Attr); i++ {
				if math.Abs(rec.Attr[i].Weight) > math.Abs(rec.Attr[i-1].Weight) {
					t.Fatalf("attr not sorted by |weight|: %+v", rec.Attr)
				}
			}
		}
		if rec.Flagged {
			if len(rec.Fired) == 0 || rec.Attr == nil {
				t.Fatalf("flagged verdict lacks attribution: %+v", rec)
			}
			flaggedRecs = append(flaggedRecs, rec)
		} else {
			benign++
		}
	}
	if total == 0 || len(flaggedRecs) == 0 {
		t.Fatalf("got %d verdicts, %d flagged — need both", total, len(flaggedRecs))
	}
	if benign >= 2 && attributed <= len(flaggedRecs) {
		t.Fatalf("benign sampling recorded nothing: %d attributed, %d flagged, %d benign",
			attributed, len(flaggedRecs), benign)
	}

	// Offline reconstruction: every flagged verdict re-derives bit-for-bit
	// after a JSON round trip through the log.
	for _, rec := range flaggedRecs {
		e, err := Explain(det, rec, false)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Consistent() {
			t.Fatalf("explain diverged: %v", e.Diffs)
		}
	}

	// Tampering is caught on both axes.
	tampered := flaggedRecs[0]
	tampered.Score += 1e-9
	if e, err := Explain(det, tampered, false); err != nil || e.ScoreMatch {
		t.Fatalf("score tamper not flagged: err=%v match=%v", err, e != nil && e.ScoreMatch)
	}
	tampered = flaggedRecs[0]
	tampered.Attr = append([]perspectron.Contribution(nil), tampered.Attr...)
	tampered.Attr[0].Weight *= 2
	if e, err := Explain(det, tampered, false); err != nil || e.AttrMatch {
		t.Fatalf("attr tamper not flagged: err=%v", err)
	}
	// Version mismatch refuses without force, diffs with it.
	wrongVer := flaggedRecs[0]
	wrongVer.Version = "deadbeef0000"
	if _, err := Explain(det, wrongVer, false); err == nil {
		t.Fatal("cross-version explain accepted without force")
	}
	if e, err := Explain(det, wrongVer, true); err != nil || !e.Consistent() {
		t.Fatalf("forced cross-version explain failed: %v", err)
	}
	// Records without a fired set are refused.
	if _, err := Explain(det, VerdictRecord{Worker: "w"}, false); err == nil {
		t.Fatal("unattributed record accepted")
	}

	// Stage histograms observed every scored sample.
	for _, name := range stages {
		if stageCount(name) == before[name] {
			t.Fatalf("stage histogram %s observed nothing", name)
		}
	}

	// Flight recorder: mounted, holding attributed records.
	handlers := s.Handlers()
	fh, ok := handlers["/debug/verdicts"]
	if !ok {
		t.Fatal("/debug/verdicts not mounted")
	}
	rr := httptest.NewRecorder()
	fh.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/verdicts", nil))
	var snap struct {
		Capacity int             `json:"capacity"`
		Count    uint64          `json:"count"`
		Entries  []VerdictRecord `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Capacity != 256 || snap.Count == 0 || len(snap.Entries) == 0 {
		t.Fatalf("flight snapshot = cap %d count %d entries %d", snap.Capacity, snap.Count, len(snap.Entries))
	}
	for _, rec := range snap.Entries {
		if rec.Attr == nil || rec.Trace == "" {
			t.Fatalf("flight entry not fully attributed: %+v", rec)
		}
	}

	// Health self-discovery + SLO block.
	h := s.Health()
	if h.MetricsAddr != "127.0.0.1:9464" {
		t.Fatalf("metrics addr = %q", h.MetricsAddr)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", h.UptimeSeconds)
	}
	if h.SLO.Samples == 0 {
		t.Fatalf("SLO block missing: %+v", h.SLO)
	}
	if h.SLO.Breach {
		t.Fatalf("clean fast run breached SLO: %+v", h.SLO)
	}
}

func TestSLOTrackerBurnMath(t *testing.T) {
	tr := newSLOTracker()
	// Verdicts at the target are on time: no burn.
	for i := 0; i < 20; i++ {
		tr.observe(sloLatencyTarget, false)
	}
	h := tr.snapshot()
	if h.Breach || h.LatencyBurn != 0 || h.ShedBurn != 0 || h.Samples != 20 ||
		h.LatencyTargetMs != 50 {
		t.Fatalf("on-time traffic burned: %+v", h)
	}
	// Sustained verdicts just past the target push the slow fraction toward
	// 1: after 20 at sloAlpha it is 1-0.98^20 ≈ 0.33, a burn of ≈33× the
	// 0.01 budget.
	for i := 0; i < 20; i++ {
		tr.observe(sloLatencyTarget+time.Microsecond, false)
	}
	h = tr.snapshot()
	if !h.Breach || h.LatencyBurn < 5 {
		t.Fatalf("slow traffic did not breach: %+v", h)
	}
	// Shed burn is independent of latency burn.
	tr2 := newSLOTracker()
	for i := 0; i < 20; i++ {
		tr2.observe(0, true)
	}
	h = tr2.snapshot()
	if !h.Breach || h.ShedBurn < 5 || h.LatencyBurn != 0 {
		t.Fatalf("shed traffic did not breach: %+v", h)
	}
}

// TestServedRecordShims checks the record fields kept only for bench/: a
// served record has no queue or batch wait, is never shed and sits on shard
// 0, its latency covers its score time, and it still round-trips through
// ReadVerdictLog and Explain.
func TestServedRecordShims(t *testing.T) {
	det, _ := testModels(t)
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	s, err := New(Config{
		detector:       det,
		Workloads:      []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:       60_000,
		MaxEpisodes:    1,
		backoff:        fastBackoff(),
		VerdictLogPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	recs, corrupt, _, err := ReadVerdictLog(path, 0)
	if err != nil || corrupt != 0 {
		t.Fatalf("reading the log: err=%v corrupt=%d", err, corrupt)
	}
	served, explained := 0, 0
	for _, rec := range recs {
		if rec.Mode == ModeRecovery {
			continue
		}
		served++
		if rec.QueueMs != 0 || rec.BatchMs != 0 || rec.Shed || rec.Shard != 0 {
			t.Fatalf("shim field set: %+v", rec)
		}
		if rec.ScoreMs <= 0 || rec.LatencyMs < rec.ScoreMs {
			t.Fatalf("latency %.6fms below score %.6fms", rec.LatencyMs, rec.ScoreMs)
		}
		if rec.Fired == nil {
			continue
		}
		e, err := Explain(det, rec, false)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Consistent() {
			t.Fatalf("explain diverged on %s: %v", rec.Trace, e.Diffs)
		}
		explained++
	}
	if served == 0 || explained == 0 {
		t.Fatalf("%d served records, %d explained — need both", served, explained)
	}
}
