package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"roar/internal/proto"
)

// binBody is a test body speaking the binary codec: a counter plus a
// blob, enough to prove raw bytes survive.
type binBody struct {
	N    uint64 `json:"n"`
	Blob []byte `json:"blob"`
}

func (b binBody) AppendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, b.N)
	buf = binary.AppendUvarint(buf, uint64(len(b.Blob)))
	return append(buf, b.Blob...)
}

func (b *binBody) DecodeWire(data []byte) error {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("bad N")
	}
	b.N = v
	data = data[n:]
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return fmt.Errorf("bad blob")
	}
	b.Blob = append([]byte(nil), data[n:n+int(l)]...)
	return nil
}

// startBinEcho serves an echo handler that reports which codec each
// request body arrived in.
func startBinEcho(t *testing.T) (*Server, *int, *sync.Mutex) {
	t.Helper()
	var mu sync.Mutex
	binSeen := 0
	d := NewDispatcher()
	d.Register("echo", func(_ context.Context, _ string, body Body) (interface{}, error) {
		var req binBody
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		mu.Lock()
		if body.codec == codecBinary {
			binSeen++
		}
		mu.Unlock()
		return req, nil
	})
	s, err := Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, &binSeen, &mu
}

func echoOnce(t *testing.T, c *Client, n uint64) {
	t.Helper()
	req := binBody{N: n, Blob: []byte{0x00, 0xff, 0x10, 0x20}}
	var resp binBody
	if err := c.Call(context.Background(), "echo", req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != req.N || string(resp.Blob) != string(req.Blob) {
		t.Fatalf("echo mangled: %+v != %+v", resp, req)
	}
}

// TestBinaryBodyBothWays: a body whose type speaks the binary codec
// ships in it in both directions.
func TestBinaryBodyBothWays(t *testing.T) {
	s, binSeen, mu := startBinEcho(t)
	cl := NewClient(s.Addr())
	defer cl.Close()
	echoOnce(t, cl, 7)
	mu.Lock()
	defer mu.Unlock()
	if *binSeen == 0 {
		t.Fatal("server never saw a binary-codec body")
	}
}

// TestBinaryFramingConcurrent: a connection multiplexes concurrent
// binary calls without cross-talk.
func TestBinaryFramingConcurrent(t *testing.T) {
	s, _, _ := startBinEcho(t)
	cl := NewPooledClient(s.Addr(), 2)
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := binBody{N: uint64(i), Blob: []byte{byte(i), byte(i >> 4)}}
			var resp binBody
			if err := cl.Call(context.Background(), "echo", req, &resp); err != nil {
				errs <- err
				return
			}
			if resp.N != uint64(i) {
				errs <- fmt.Errorf("cross-talk: got %d want %d", resp.N, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJSONBodyInBinaryEnvelope: a body that does not implement the
// binary codec rides as JSON inside the envelope.
func TestJSONBodyInBinaryEnvelope(t *testing.T) {
	type plain struct {
		Msg string `json:"msg"`
	}
	d := NewDispatcher()
	d.Register("plain", func(_ context.Context, _ string, body Body) (interface{}, error) {
		if body.codec != codecJSON {
			return nil, fmt.Errorf("control body arrived with codec %d", body.codec)
		}
		var req plain
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return plain{Msg: req.Msg + "!"}, nil
	})
	s, err := Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := NewClient(s.Addr())
	defer cl.Close()
	var resp plain
	if err := cl.Call(context.Background(), "plain", plain{Msg: "ctrl"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "ctrl!" {
		t.Fatalf("control body mangled: %q", resp.Msg)
	}
}

// TestBodyCodecMustMatchType: the envelope's codec byte is checked
// against the receiving type in both directions. A binary payload aimed
// at a JSON-only type and a JSON payload aimed at a binary type are both
// typed errors, never a silently accepted twin encoding. An absent body
// (nil request) decodes as the zero value either way.
func TestBodyCodecMustMatchType(t *testing.T) {
	type plain struct {
		Msg string `json:"msg"`
	}
	var bbe *BinaryBodyError
	if err := (Body{codec: codecBinary, data: []byte{1}}).Decode(&plain{}); !errors.As(err, &bbe) {
		t.Errorf("binary payload into a JSON type: %v, want *BinaryBodyError", err)
	}
	var jbe *JSONBodyError
	if err := (Body{codec: codecJSON, data: []byte(`{"n":1}`)}).Decode(&binBody{}); !errors.As(err, &jbe) {
		t.Errorf("JSON payload into a binary type: %v, want *JSONBodyError", err)
	}
	for _, v := range []interface{}{&plain{}, &binBody{}} {
		if err := (Body{}).Decode(v); err != nil {
			t.Errorf("absent body into %T: %v", v, err)
		}
	}
	if err := (Body{codec: 7}).Decode(&plain{}); err == nil {
		t.Error("unknown body codec accepted")
	}

	// Across the wire both rejections arrive as RemoteErrors with their
	// text.
	d := NewDispatcher()
	d.Register("want-json", func(_ context.Context, _ string, body Body) (interface{}, error) {
		return nil, body.Decode(&plain{})
	})
	d.Register("want-binary", func(_ context.Context, _ string, body Body) (interface{}, error) {
		return nil, body.Decode(&binBody{})
	})
	s, err := Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := NewClient(s.Addr())
	defer cl.Close()
	for _, tc := range []struct {
		method string
		in     interface{}
		msg    string
	}{
		{"want-json", binBody{N: 1}, (&BinaryBodyError{Type: "*wire.plain"}).Error()},
		{"want-binary", plain{Msg: "x"}, (&JSONBodyError{Type: "*wire.binBody"}).Error()},
	} {
		var re *RemoteError
		if err := cl.Call(context.Background(), tc.method, tc.in, nil); !errors.As(err, &re) || re.Msg != tc.msg {
			t.Errorf("%s: %v, want RemoteError %q", tc.method, err, tc.msg)
		}
	}
}

// TestOneCodecPerMessage: which codec a message travels in is decided
// by its Go type and nothing else, one row per proto body. Observed in
// the server-side handler: the six bodies that carry records, trapdoors
// or id sets arrive binary, every other body arrives as JSON, and a view
// pull (nil request, JSON response) decodes.
func TestOneCodecPerMessage(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]byte{}
	s, err := Serve("127.0.0.1:0", func(_ context.Context, method string, body Body) (interface{}, error) {
		mu.Lock()
		seen[method] = body.codec
		mu.Unlock()
		if method == proto.MMemberView {
			return proto.View{Epoch: 3, P: 2, Nodes: []proto.NodeInfo{{ID: 1, Addr: "a"}}}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := NewClient(s.Addr())
	defer cl.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		method string
		in     interface{}
		codec  byte
	}{
		{proto.MNodeQuery, proto.QueryReq{QID: 1, Hi: 1}, codecBinary},
		{"query.resp", proto.QueryResp{IDs: []uint64{1, 2}}, codecBinary},
		{proto.MNodePut, proto.PutReq{Epoch: 1}, codecBinary},
		{proto.MFEQuery, proto.FEQueryReq{Tenant: "t"}, codecBinary},
		{proto.MMemberIngest, proto.IngestReq{}, codecBinary},
		{proto.MFEPut, proto.IngestReq{}, codecBinary},
		{proto.MMemberDrained, proto.DrainedReq{After: 3, Max: 8}, codecJSON},
		{"drained.resp", proto.DrainedResp{}, codecBinary},
		{proto.MNodePing, proto.PingReq{}, codecJSON},
		{"ping.resp", proto.PingResp{QueueDepth: 2}, codecJSON},
		{"ingest.resp", proto.IngestResp{Seq: 3, Drained: 2}, codecJSON},
		{proto.MMemberHealth, proto.HealthReport{FE: "fe", Seq: 1}, codecJSON},
		{"health.resp", proto.HealthResp{Epoch: 4}, codecJSON},
		{proto.MMemberReplicate, proto.ReplicateReq{Term: 1}, codecJSON},
		{"replicate.resp", proto.ReplicateResp{Term: 1, OK: true}, codecJSON},
		{proto.MMemberLease, proto.LeaseReq{Term: 1}, codecJSON},
		{"lease.resp", proto.LeaseResp{Term: 1, Granted: true}, codecJSON},
		{"view.push", proto.View{Epoch: 1}, codecJSON},
	} {
		if err := cl.Call(ctx, tc.method, tc.in, nil); err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		mu.Lock()
		got := seen[tc.method]
		mu.Unlock()
		if got != tc.codec {
			t.Errorf("%s (%T) arrived with codec %d, want %d", tc.method, tc.in, got, tc.codec)
		}
	}
	var v proto.View
	if err := cl.Call(ctx, proto.MMemberView, nil, &v); err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 3 || len(v.Nodes) != 1 {
		t.Errorf("view pull decoded as %+v", v)
	}
}
