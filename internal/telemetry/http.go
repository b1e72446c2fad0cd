package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the registry's HTTP surface:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (Snapshot)
//	/debug/pprof/  the standard net/http/pprof profiles
//
// plus the extra routes (nil for none) on the same mux — the serving runtime
// mounts /healthz and /readyz next to /metrics so one scrape address covers
// liveness, readiness and metrics. Mounting pprof next to the metrics means
// a long experiments run can be profiled with
// `go tool pprof http://addr/debug/pprof/profile` without any extra wiring
// (docs/OBSERVABILITY.md).
func (r *Registry) Handler(extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// Serve starts an HTTP server for the registry's Handler, with the extra
// routes (health endpoints; nil for none) mounted, on addr (e.g. ":9464";
// ":0" picks a free port). It returns the running server — shut it down
// with Server.Shutdown/Close — and the bound address.
func Serve(addr string, r *Registry, extra map[string]http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: r.Handler(extra)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
