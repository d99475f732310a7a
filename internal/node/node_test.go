package node

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/store"
	"roar/internal/wire"
)

func testSetup(t *testing.T) (*Node, *pps.Encoder) {
	t.Helper()
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 4, MaxPathDir: 2,
		SizePoints: pps.LinearPoints(0, 100, 4), DateDays: 365, DateSpan: 4,
		RankBuckets: []int{1},
	})
	n, err := New(Config{Params: enc.ServerParams(), MatchThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n, enc
}

func loadDocs(t *testing.T, n *Node, enc *pps.Encoder, words []string) []uint64 {
	t.Helper()
	ids := make([]uint64, len(words))
	for i, w := range words {
		id := uint64(i+1) << 32
		doc := pps.Document{ID: id, Path: "/x", Size: 10,
			Modified: time.Unix(1.2e9, 0), Keywords: []string{w}}
		rec, err := enc.EncryptDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		n.Put(proto.PutReq{Records: []pps.Encoded{rec}})
		ids[i] = id
	}
	return ids
}

func TestNodeQueryLocal(t *testing.T) {
	n, enc := testSetup(t)
	ids := loadDocs(t, n, enc, []string{"aa", "bb", "aa", "cc"})
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.4999999, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 {
		t.Fatalf("matched %d, want 2", len(resp.IDs))
	}
	want := map[uint64]bool{ids[0]: true, ids[2]: true}
	for _, id := range resp.IDs {
		if !want[id] {
			t.Fatalf("unexpected match %d", id)
		}
	}
	if resp.Scanned != 4 || resp.MatchNanos <= 0 {
		t.Errorf("Scanned=%d MatchNanos=%d", resp.Scanned, resp.MatchNanos)
	}
	st := n.Stats()
	if st.Queries != 1 || st.Objects != 4 || st.Scanned != 4 {
		t.Errorf("stats: %+v", st)
	}
}

// TestNodeQueryShortFilter: a record whose Bloom filter is shorter than
// the matcher's MBits (nothing on the write path checks it, and a Put
// that rejected it would stall the WAL drain forever) must cost the node
// one non-match, not the process: the scan used to index past the slice
// inside a matcher goroutine.
func TestNodeQueryShortFilter(t *testing.T) {
	n, enc := testSetup(t)
	ids := loadDocs(t, n, enc, []string{"aa", "bb", "aa"})
	bad, _ := n.Store().Get(ids[0])
	bad.ID = 99 << 32
	bad.Filter = bad.Filter[:1]
	if _, err := n.Put(proto.PutReq{Records: []pps.Encoded{bad}}); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i < 2; i++ { // the scan that derives the schedules, and one that has them
		resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.4999999, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Scanned != 4 || len(resp.IDs) != 2 || resp.IDs[0] != ids[0] || resp.IDs[1] != ids[2] {
			t.Fatalf("query %d over a short-filter record: scanned %d, matched %v; want 4 and %v", i, resp.Scanned, resp.IDs, []uint64{ids[0], ids[2]})
		}
	}
}

func TestNodeQueryPartialArc(t *testing.T) {
	n, enc := testSetup(t)
	loadDocs(t, n, enc, []string{"aa", "aa", "aa", "aa"})
	// ids are (i+1)<<32, i.e. points ~ (i+1)*2^-32 — all very near 0.
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.6, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 0 || resp.Scanned != 0 {
		t.Errorf("arc away from objects matched %d/%d", len(resp.IDs), resp.Scanned)
	}
}

func TestNodeRetain(t *testing.T) {
	n, enc := testSetup(t)
	loadDocs(t, n, enc, []string{"aa", "bb"})
	// Objects sit just above 0; a range at 0 with p=4 keeps them.
	resp := n.Retain(proto.RetainReq{Start: 0, Length: 0.25, P: 4})
	if resp.Dropped != 0 || resp.Remaining != 2 {
		t.Errorf("retain kept wrong set: %+v", resp)
	}
	// A range far away drops them.
	resp = n.Retain(proto.RetainReq{Start: 0.5, Length: 0.1, P: 4})
	if resp.Dropped != 2 || resp.Remaining != 0 {
		t.Errorf("retain should drop both: %+v", resp)
	}
}

func TestNodeThrottle(t *testing.T) {
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 365, DateSpan: 2,
		RankBuckets: []int{1},
	})
	n, err := New(Config{Params: enc.ServerParams(), ObjectsPerSec: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var recs []pps.Encoded
	for i := 0; i < 100; i++ {
		r, err := enc.EncryptDocument(pps.Document{ID: uint64(i+1) << 40, Path: "/x",
			Size: 1, Modified: time.Unix(1.2e9, 0), Keywords: []string{"w"}})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	n.Put(proto.PutReq{Records: recs})
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "w"})
	start := time.Now()
	if _, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.49999, Q: q}); err != nil {
		t.Fatal(err)
	}
	// 100 objects at 1000 obj/s = 100ms.
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("throttled query took %v, want >= ~100ms", el)
	}
}

func TestNodeServeRPC(t *testing.T) {
	n, enc := testSetup(t)
	srv, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := wire.NewClient(srv.Addr())
	defer cl.Close()

	if err := cl.Call(context.Background(), proto.MNodePing, nil, nil); err != nil {
		t.Fatal(err)
	}
	rec, err := enc.EncryptDocument(pps.Document{ID: 1 << 40, Path: "/x", Size: 5,
		Modified: time.Unix(1.2e9, 0), Keywords: []string{"net"}})
	if err != nil {
		t.Fatal(err)
	}
	var put proto.PutResp
	if err := cl.Call(context.Background(), proto.MNodePut, proto.PutReq{Records: []pps.Encoded{rec}}, &put); err != nil {
		t.Fatal(err)
	}
	if put.Stored != 1 || put.Total != 1 {
		t.Errorf("put = %+v", put)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "net"})
	var resp proto.QueryResp
	if err := cl.Call(context.Background(), proto.MNodeQuery,
		proto.QueryReq{Lo: 0.5, Hi: 0.49999, Q: q}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 1 || resp.IDs[0] != 1<<40 {
		t.Errorf("query over RPC = %+v", resp)
	}
	var st proto.StatsResp
	if err := cl.Call(context.Background(), proto.MNodeStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 {
		t.Errorf("stats over RPC: %+v", st)
	}
	// Malformed body surfaces an error, not a hang.
	if err := cl.Call(context.Background(), proto.MNodeQuery, "not an object", nil); err == nil {
		t.Error("malformed request should error")
	}
}

// TestNodeRefusesNonFiniteSubQuery: a sub-query whose bound is NaN or
// infinite names no arc; the node refuses it at decode and scans
// nothing, where a finite query over the same wire is answered.
func TestNodeRefusesNonFiniteSubQuery(t *testing.T) {
	n, enc := testSetup(t)
	loadDocs(t, n, enc, []string{"net", "net"})
	srv, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := wire.NewClient(srv.Addr())
	defer cl.Close()
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "net"})
	ctx := context.Background()
	for _, b := range [][2]float64{{math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.NaN(), math.NaN()}} {
		err := cl.Call(ctx, proto.MNodeQuery, proto.QueryReq{Lo: b[0], Hi: b[1], Q: q}, &proto.QueryResp{})
		if err == nil || !strings.Contains(err.Error(), "not a finite ring bound") {
			t.Errorf("sub-query (%v, %v]: %v, want a non-finite bound refusal", b[0], b[1], err)
		}
	}
	if st := n.Stats(); st.Queries != 0 || st.Scanned != 0 {
		t.Errorf("refused sub-queries ran: %d queries scanned %d records", st.Queries, st.Scanned)
	}
	var resp proto.QueryResp
	if err := cl.Call(ctx, proto.MNodeQuery, proto.QueryReq{Lo: 0.5, Hi: 0.5, Q: q}, &resp); err != nil || len(resp.IDs) != 2 {
		t.Errorf("a whole-ring sub-query after the refusals: %v, %d ids, want 2", err, len(resp.IDs))
	}
}

func TestNodeRejectsBadParams(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero MBits should be rejected")
	}
}

func TestPointConsistencyWithStore(t *testing.T) {
	// The node's arc filtering and the store's point mapping must agree.
	if store.PointOf(0) != 0 {
		t.Error("PointOf(0) != 0")
	}
}

// TestNodePutKeepsNoFrameBytes: a decoded PutReq's records are views of
// the request body, which the wire reuses once the handler returns, so
// Put must leave nothing of the body in the node. Each round decodes a
// push, puts it, overwrites the body and then checks the store byte for
// byte and by query: first fresh records, then the same ids rewritten
// with other bytes of the same lengths, which the store copies over its
// own.
func TestNodePutKeepsNoFrameBytes(t *testing.T) {
	n, enc := testSetup(t)
	for _, word := range []string{"kw", "other"} {
		recs := make([]pps.Encoded, 8)
		for i := range recs {
			rec, err := enc.EncryptDocument(pps.Document{
				ID: uint64(i+1) << 40, Path: "/e", Size: 9,
				Modified: time.Unix(1.2e9, 0), Keywords: []string{word},
			})
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = rec
		}
		body := proto.PutReq{Records: recs, Epoch: 1}.AppendWire(nil)
		var req proto.PutReq
		if err := req.DecodeWire(body); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Put(req); err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 0xAA
		}
		for _, want := range recs {
			got, ok := n.Store().Get(want.ID)
			if !ok || string(got.Nonce) != string(want.Nonce) || string(got.Filter) != string(want.Filter) {
				t.Fatalf("%s: record %d changed when the push body was overwritten", word, want.ID)
			}
		}
		q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.5, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.IDs) != len(recs) {
			t.Fatalf("%s: the query matches %d of the %d records put", word, len(resp.IDs), len(recs))
		}
	}
}
