// Package debughttp serves a binary's debug endpoints on their own HTTP
// listener: net/http/pprof under /debug/pprof/ and expvar under
// /debug/vars. It registers nothing else and starts nothing else.
// Every cmd/ binary takes -debug-addr for it; empty turns it off.
package debughttp

import (
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a running debug listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve listens on addr and serves the debug endpoints until Close. An
// empty addr serves nothing and returns a nil Server, whose Addr is
// empty and whose Close does nothing.
func Serve(addr string) (*Server, error) {
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
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	return s, nil
}

// Addr is the address the server listens on.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server, drops its connections, and returns once its
// goroutine has exited.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
