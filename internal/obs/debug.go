package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is a live diagnostics endpoint: net/http/pprof profiles under
// /debug/pprof/ and expvar under /debug/vars (the runtime's memstats and
// fedpkd_kernel_stats). It runs on its own mux so importing this package
// never touches http.DefaultServeMux.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebugServer listens on addr (e.g. "localhost:6060"; port 0 picks a
// free port) and serves pprof + expvar until Close.
func StartDebugServer(addr string) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
