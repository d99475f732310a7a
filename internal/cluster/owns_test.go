package cluster

import (
	"bytes"
	"context"
	"testing"

	"roar/internal/frontend"
	"roar/internal/node"
	"roar/internal/pps"
)

// TestBackendOwnsIngestedBytes: an in-process caller that hands records
// to IngestPut may reuse its buffers once the call returns, so the
// coordinator's backend, which every Join copies a new node's stored set
// from, must keep bytes of its own. One record is ingested and drained,
// the caller overwrites its filter, and a node joins: at p = 1 it stores
// everything, and what it gets must be the bytes that were ingested,
// the same the first holders got from the drain.
func TestBackendOwnsIngestedBytes(t *testing.T) {
	c, err := Start(Options{Nodes: 2, P: 1, Seed: 1, Frontend: frontend.Config{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	rec := pps.Encoded{ID: 1 << 62, BloomMetadata: pps.BloomMetadata{
		Nonce:  bytes.Repeat([]byte{0x05}, 16),
		Filter: bytes.Repeat([]byte{0x09}, 32),
	}}
	want := bytes.Clone(rec.Filter)
	seq, err := c.IngestPut(ctx, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	for i := range rec.Filter {
		rec.Filter[i] = 0xAA
	}

	nd, err := node.New(node.Config{Params: c.Enc.ServerParams()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := nd.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := c.Coord.Join(ctx, srv.Addr(), 1); err != nil {
		t.Fatal(err)
	}
	for i, n := range append(c.Nodes(), nd) {
		got, ok := n.Store().Get(rec.ID)
		if !ok {
			t.Fatalf("node %d does not hold the record", i)
		}
		if !bytes.Equal(got.Filter, want) {
			t.Errorf("node %d holds filter %x, want the ingested %x", i, got.Filter[:4], want[:4])
		}
	}
}
