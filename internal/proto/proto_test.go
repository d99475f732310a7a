package proto

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"roar/internal/pps"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type,
// and requires deep equality — the property the wire layer relies on
// for every message.
func roundTrip(t *testing.T, v interface{}) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(b, out.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if got := out.Elem().Interface(); !reflect.DeepEqual(got, v) {
		t.Errorf("%T round-trip mismatch:\n sent %+v\n got  %+v", v, v, got)
	}
}

func testEncoder() *pps.Encoder {
	return pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 30, DateSpan: 2,
		RankBuckets: []int{1},
	})
}

func testQuery(t *testing.T) pps.Query {
	t.Helper()
	q, err := testEncoder().EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func testRecord(t *testing.T) pps.Encoded {
	t.Helper()
	rec, err := testEncoder().EncryptDocument(pps.Document{
		ID: 42, Path: "/a/b", Size: 10,
		Modified: time.Unix(1.2e9, 0), Keywords: []string{"aa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLoadMessages(t *testing.T) {
	roundTrip(t, LoadReq{Path: "/tmp/corpus.dat"})
	roundTrip(t, LoadResp{Records: 12345})
}

func TestFrontendMessages(t *testing.T) {
	roundTrip(t, FEQueryReq{Q: testQuery(t)})
	roundTrip(t, FEQueryResp{
		IDs:        []uint64{1, 2, 1 << 60},
		DelayNanos: 987654321,
		QueueNanos: 1234,
		SubQueries: 7,
		Failures:   2,
		Hedges:     1,
	})
}

func TestNodeQueryMessages(t *testing.T) {
	roundTrip(t, QueryReq{QID: 9, Lo: 0.125, Hi: 0.875, Q: testQuery(t)})
	roundTrip(t, QueryResp{IDs: []uint64{3, 1}, Scanned: 400, MatchNanos: 55, QueueDepth: 3})
	roundTrip(t, PingResp{QueueDepth: 2})
}

func TestNodeDataMessages(t *testing.T) {
	roundTrip(t, PutReq{Records: []pps.Encoded{testRecord(t)}})
	roundTrip(t, PutResp{Stored: 1, Total: 10})
	roundTrip(t, DeleteReq{IDs: []uint64{5, 6}})
	roundTrip(t, RetainReq{Start: 0.25, Length: 0.5, P: 4})
	roundTrip(t, RetainResp{Dropped: 3, Remaining: 7})
	roundTrip(t, StatsResp{Objects: 9, Queries: 100, Scanned: 5000,
		BusyNanos: 777, UptimeSecs: 3.5, PeakConcurrency: 16, Canceled: 4})
}

func TestMembershipMessages(t *testing.T) {
	roundTrip(t, NodeInfo{ID: 3, Ring: 1, Start: 0.75, Addr: "127.0.0.1:9999", Quarantined: true})
	roundTrip(t, JoinReq{Addr: "127.0.0.1:1", SpeedHint: 2.5})
	roundTrip(t, JoinResp{ID: 8, Ring: 0, Start: 0.5})
	roundTrip(t, LeaveReq{ID: 8})
	roundTrip(t, SetPReq{P: 6})
	roundTrip(t, HealthReport{
		FE: "fe-0", Seq: 3, Shed: 2,
		Nodes: []NodeHealth{{ID: 1, Suspicions: 1, ProbeOKs: 2, ProbeFails: 3, Contacts: 4, QueueDepth: 5, Speed: 1.5}},
	})
	roundTrip(t, HealthResp{Epoch: 9, Quarantined: []int{1, 4}})
}

// parentViewJSON is json.Marshal of the view below at the last commit
// whose View still declared a "tuning" overlay (PR 27): no coordinator
// could set that field, so these are the bytes every running system
// publishes.
const parentViewJSON = `{"epoch":7,"p":2,"nodes":[{"id":0,"ring":0,"start":0,"addr":"127.0.0.1:7001"},{"id":1,"ring":0,"start":0.5,"addr":"127.0.0.1:7002","quarantined":true},{"id":2,"ring":1,"start":0.25,"addr":"127.0.0.1:7003"}],"term":3,"ingested":41,"drained":40}`

// TestViewBytesUnchanged pins the view's JSON form across the removal
// of that field, in both directions: today's coordinator emits exactly
// the parent's bytes (so a parent frontend decodes them), and a view
// that does carry the retired "tuning" key still decodes, the key
// ignored.
func TestViewBytesUnchanged(t *testing.T) {
	v := View{Epoch: 7, P: 2, Term: 3, Ingested: 41, Drained: 40, Nodes: []NodeInfo{
		{ID: 0, Ring: 0, Start: 0, Addr: "127.0.0.1:7001"},
		{ID: 1, Ring: 0, Start: 0.5, Addr: "127.0.0.1:7002", Quarantined: true},
		{ID: 2, Ring: 1, Start: 0.25, Addr: "127.0.0.1:7003"},
	}}
	roundTrip(t, v)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != parentViewJSON {
		t.Fatalf("view bytes moved:\n got %s\nwant %s", b, parentViewJSON)
	}
	withKey := strings.Replace(parentViewJSON, `"term":3`, `"tuning":{"pool_size":2,"max_in_flight":32},"term":3`, 1)
	var got View
	if err := json.Unmarshal([]byte(withKey), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("view with a tuning key decoded to %+v, want %+v", got, v)
	}
}

// TestQueryMatchabilitySurvivesWire pins the end-to-end property the
// protocol exists for: an encrypted query that matched a record before
// serialisation still matches after both cross the wire.
func TestQueryMatchabilitySurvivesWire(t *testing.T) {
	enc := testEncoder()
	rec := testRecord(t)
	q := testQuery(t)

	reqB, err := json.Marshal(QueryReq{QID: 1, Lo: 0, Hi: 1, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	putB, err := json.Marshal(PutReq{Records: []pps.Encoded{rec}})
	if err != nil {
		t.Fatal(err)
	}
	var req QueryReq
	var put PutReq
	if err := json.Unmarshal(reqB, &req); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(putB, &put); err != nil {
		t.Fatal(err)
	}
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	got := m.MatchAll(req.Q, put.Records)
	if len(got) != 1 || got[0] != rec.ID {
		t.Errorf("query should still match record %d after a wire round-trip, got %v", rec.ID, got)
	}
}
