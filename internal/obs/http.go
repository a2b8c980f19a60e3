package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
)

// NewHandler mounts the introspection surface on a private mux:
//
//	/metrics           Prometheus text exposition of smp's registry
//	/debug/pprof/*     the standard runtime profiles
//	/debug/traces      tr's retained spans as JSON; ?format=chrome
//	                   renders Chrome trace_event JSON (404 when nil)
//	/debug/timeseries  smp's ring-buffer series + check verdicts as
//	                   JSON (404 when nil)
//	/debug/dash        self-contained HTML dashboard with inline SVG
//	                   sparklines; ?by=<label> groups per shard/replica
//	                   (404 when smp is nil)
//	/healthz           200 "ok" — or 503 "degraded" listing the failing
//	                   series checks when the sampler has any
//
// Nothing registers on http.DefaultServeMux, so tests can mount several
// handlers in one process.
func NewHandler(smp *Sampler, tr *Tracer) http.Handler {
	reg := smp.Registry()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		reg.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String())) //nolint:errcheck // a dead scraper is its own problem
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		// An explicit 404 beats an empty 200: "tracing disabled" and "no
		// spans recorded yet" are different operator situations.
		if tr == nil {
			http.Error(w, "tracing disabled (no tracer attached)", http.StatusNotFound)
			return
		}
		var b strings.Builder
		if r.URL.Query().Get("format") == "chrome" {
			tr.WriteChrome(&b)
		} else {
			tr.WriteJSON(&b)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(b.String())) //nolint:errcheck
	})
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, _ *http.Request) {
		if smp == nil {
			http.Error(w, "time-series sampling disabled (no sampler attached)", http.StatusNotFound)
			return
		}
		out, err := smp.Dump().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out) //nolint:errcheck
	})
	mux.HandleFunc("/debug/dash", func(w http.ResponseWriter, r *http.Request) {
		if smp == nil {
			http.Error(w, "time-series sampling disabled (no sampler attached)", http.StatusNotFound)
			return
		}
		var b strings.Builder
		WriteDash(&b, smp, r.URL.Query().Get("by"))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(b.String())) //nolint:errcheck
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Failing series checks degrade health: a soak whose heap series
		// stopped being flat should trip the operator's probe, not wait for
		// the end-of-run report.
		if ok, failed := smp.Healthy(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			var b strings.Builder
			b.WriteString("degraded\n")
			for _, c := range failed {
				fmt.Fprintf(&b, "check %s (%s on %s): %s\n", c.Name, c.Kind, c.Series, c.Detail)
			}
			w.Write([]byte(b.String())) //nolint:errcheck
			return
		}
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	return mux
}
