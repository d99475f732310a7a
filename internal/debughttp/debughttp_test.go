package debughttp

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeDebugEndpoints: the pprof index and the expvar page answer,
// and Close stops the listener. An empty address starts nothing.
func TestServeDebugEndpoints(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/debug/pprof/": "goroutine", "/debug/vars": "memstats"} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: %s, body without %q", path, resp.Status, want)
		}
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Error("the debug listener still answers after Close")
	}

	off, err := Serve("")
	if err != nil || off != nil || off.Addr() != "" || off.Close() != nil {
		t.Fatalf("Serve(\"\") = %v, %v; want nothing started", off, err)
	}
}
