package telemetrycli

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perspectron/internal/telemetry"
)

func TestRegisterInstallsFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{
		"-metrics-addr", "127.0.0.1:0",
		"-trace-out", "events.jsonl",
		"-metrics-hold", "3s",
	}); err != nil {
		t.Fatal(err)
	}
	if o.Addr != "127.0.0.1:0" || o.TraceOut != "events.jsonl" || o.Hold != 3*time.Second {
		t.Fatalf("parsed options = %+v", o)
	}
}

// TestStartNoFlagsIsNoOp pins that Start without flags exposes nothing: no
// server is bound and no event sink is attached to the process registry.
func TestStartNoFlagsIsNoOp(t *testing.T) {
	o := &Options{}
	stop, err := o.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if o.Bound != "" {
		t.Fatalf("no-flag Start bound a metrics server on %s", o.Bound)
	}
	// An Event allocates only when a sink is attached to write it.
	fields := map[string]any{"k": 1}
	if n := testing.AllocsPerRun(10, func() { telemetry.Get().Event("no_flags", fields) }); n != 0 {
		t.Fatalf("no-flag Start attached an event sink (Event allocated %v times)", n)
	}
}

func TestStartServesMetricsAndWritesTrace(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "events.jsonl")
	o := &Options{Addr: "127.0.0.1:0", TraceOut: traceOut}
	stop, err := o.Start()
	if err != nil {
		t.Fatal(err)
	}
	if o.Bound == "" {
		t.Fatal("Start did not report the bound metrics address")
	}

	reg := telemetry.Get()
	reg.Counter("perspectron_test_total").Inc()
	_, span := reg.StartSpan(context.Background(), "smoke")
	span.End()

	// Start only reports the bound address on stderr, so the HTTP side is
	// covered by TestStartScrapeOverHTTP; here assert the trace log received
	// the span event and that stop tears everything down cleanly.
	stop()

	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"phase":"smoke"`) {
		t.Fatalf("trace log missing span event:\n%s", b)
	}
}

func TestStartScrapeOverHTTP(t *testing.T) {
	// Use telemetry.Serve directly for an inspectable bound address, with
	// the same registry Start would enable.
	reg := telemetry.NewRegistry()
	reg.Counter("perspectron_scrape_total").Add(3)
	srv, addr, err := telemetry.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "perspectron_scrape_total 3") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
}

func TestStartBadTraceOutFails(t *testing.T) {
	o := &Options{TraceOut: filepath.Join(t.TempDir(), "missing", "events.jsonl")}
	if _, err := o.Start(); err == nil {
		t.Fatal("Start with an unwritable -trace-out succeeded")
	}
}
