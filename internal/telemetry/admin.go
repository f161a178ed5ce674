package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// Admin is the live-introspection HTTP listener the daemons expose behind
// their -admin-addr flag:
//
//	GET /metrics        expvar-style JSON snapshot of the registry
//	GET /metrics.prom   the same snapshot as Prometheus text exposition
//	GET /traces         recorded span trees + energy attribution (JSON);
//	                    ?trace=<hex id> selects one trace,
//	                    ?format=chrome renders a Perfetto-loadable trace
//	GET /healthz        the daemon's own health payload (JSON)
//	GET /debug/pprof/*  the standard runtime profiles
type Admin struct {
	ln  net.Listener
	srv *http.Server
}

// AdminConfig wires the optional observability sources into an admin
// listener. Nil fields disable the corresponding endpoints' content
// (the routes still exist and return empty payloads).
type AdminConfig struct {
	Registry *Registry
	Health   func() any
	Tracer   *Tracer
	Energy   *EnergyLedger
}

// tracesPayload is the /traces JSON document: tracer activity counters,
// the energy ledger snapshot, and every recorded span grouped by trace.
type tracesPayload struct {
	Stats  TracerStats           `json:"stats"`
	Energy EnergySnapshot        `json:"energy"`
	Traces map[string][]SpanData `json:"traces"`
}

// StartAdminConfig binds addr and serves the admin endpoints from the
// given sources.
func StartAdminConfig(addr string, cfg AdminConfig) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cfg.Registry.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteProm(w, cfg.Registry.Snapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		spans := cfg.Tracer.Spans()
		if want := r.URL.Query().Get("trace"); want != "" {
			id, err := strconv.ParseUint(want, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			kept := spans[:0]
			for _, d := range spans {
				if d.TraceID == id {
					kept = append(kept, d)
				}
			}
			spans = kept
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			WriteChromeSpans(w, spans)
			return
		}
		payload := tracesPayload{
			Stats:  cfg.Tracer.Stats(),
			Energy: cfg.Energy.Snapshot(),
			Traces: map[string][]SpanData{},
		}
		for _, d := range spans {
			key := strconv.FormatUint(d.TraceID, 16)
			payload.Traces[key] = append(payload.Traces[key], d)
		}
		for _, tree := range payload.Traces {
			sort.Slice(tree, func(i, j int) bool { return tree[i].StartNs < tree[j].StartNs })
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := any(map[string]string{"status": "ok"})
		if cfg.Health != nil {
			payload = cfg.Health()
		}
		json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a := &Admin{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound listen address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (a *Admin) Close() error { return a.srv.Close() }
