// Package telemetrycli wires the shared telemetry flags into the command
// line tools: every CLI registers -metrics-addr, -trace-out and
// -metrics-hold through Register and brackets its work with Options.Start.
// The process registry is always recording; the flags only choose what is
// exposed — the HTTP server and the run-event log. When neither flag is
// given, Start starts nothing.
package telemetrycli

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"perspectron/internal/telemetry"
)

// Options holds the parsed telemetry flag values.
type Options struct {
	Addr     string
	TraceOut string
	Hold     time.Duration

	// Bound is the address the metrics server actually bound, set by Start —
	// the resolved form of Addr when ":0" asked the kernel to pick a port.
	// Commands feed it back into their health surface (SetListenAddr) so
	// /healthz self-reports where it is scraped from.
	Bound string

	// Extra routes are mounted on the metrics server next to /metrics —
	// set programmatically (not a flag) before Start; the serve subcommand
	// adds /healthz and /readyz here.
	Extra map[string]http.Handler
}

// Register installs the telemetry flags on fs and returns the value holder.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.Addr, "metrics-addr", "",
		"serve /metrics, /metrics.json and /debug/pprof on this address (e.g. 127.0.0.1:9464)")
	fs.StringVar(&o.TraceOut, "trace-out", "",
		"append run events (span timings, verdicts) as JSON lines to this file")
	fs.DurationVar(&o.Hold, "metrics-hold", 0,
		"keep serving -metrics-addr this long after the command finishes (for scraping a short run)")
	return o
}

// Start exposes the process-wide telemetry registry as the flags ask: it
// attaches -trace-out as the run-event log and serves -metrics-addr. The
// returned stop function flushes and tears everything down — and, when
// -metrics-hold is set, first keeps the metrics endpoint alive for that
// duration so a scraper can read the completed run.
func (o *Options) Start() (stop func(), err error) {
	reg := telemetry.Get()

	var closers []func()
	if o.TraceOut != "" {
		f, err := os.OpenFile(o.TraceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("telemetry: opening -trace-out: %w", err)
		}
		reg.SetEventSink(f)
		closers = append(closers, func() {
			reg.SetEventSink(nil)
			f.Close()
		})
	}
	if o.Addr != "" {
		srv, addr, err := telemetry.Serve(o.Addr, reg, o.Extra)
		if err != nil {
			for _, c := range closers {
				c()
			}
			return nil, fmt.Errorf("telemetry: serving -metrics-addr: %w", err)
		}
		o.Bound = addr
		fmt.Fprintf(os.Stderr, "telemetry: serving metrics on http://%s/metrics\n", addr)
		closers = append(closers, func() {
			if o.Hold > 0 {
				fmt.Fprintf(os.Stderr, "telemetry: holding metrics endpoint for %s\n", o.Hold)
				time.Sleep(o.Hold)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}, nil
}
