// Package debugsrv serves a process's profiles and runtime variables —
// net/http/pprof and expvar — on a listener of its own, never on a
// public handler: the -debug-addr flag of mtmlf-serve and mtmlf-train.
package debugsrv

import (
	"expvar"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Start serves /debug/pprof/ (with its cmdline, profile, symbol and
// trace handlers) and /debug/vars on addr in the background, from a mux
// of its own: not http.DefaultServeMux, where the pprof and expvar
// packages register themselves. It logs the bound address, which it
// also returns, so a port 0 (one per rank on a shared host) can be read
// from the log. An empty addr starts nothing.
func Start(addr string) (net.Addr, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	log.Printf("debug endpoints on http://%s/debug/pprof/", ln.Addr())
	// No write timeout: /debug/pprof/profile and /trace stream for as
	// long as their seconds parameter asks.
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { log.Printf("debug listener: %v", srv.Serve(ln)) }()
	return ln.Addr(), nil
}
