package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
)

// Every record reaches the nodes through the coordinator's log, and
// every coordinator rebuilds its backend from that log. These tests pin
// the two consequences: a successor that loaded nothing itself can move
// any arc, and a load fences the frontends' result caches like any
// other write.

// heldBy counts the records the given nodes store.
func heldBy(nodes []*node.Node) int {
	n := 0
	for _, nd := range nodes {
		n += nd.Store().Len()
	}
	return n
}

// storedIDs lists the ids a node stores, ascending.
func storedIDs(nd *node.Node) []uint64 {
	var ids []uint64
	for _, r := range nd.Store().InArc(0, 0) {
		ids = append(ids, r.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// viewHeld maps every node of v to the ids it must hold:
// store.StoredSpans of its range on its ring, at v's p.
func viewHeld(t *testing.T, v proto.View) map[ring.NodeID][]store.Span {
	t.Helper()
	rings := map[int]*ring.Ring{}
	for _, n := range v.Nodes {
		if rings[n.Ring] == nil {
			rings[n.Ring] = ring.New()
		}
		if err := rings[n.Ring].Insert(ring.NodeID(n.ID), ring.Point(n.Start)); err != nil {
			t.Fatal(err)
		}
	}
	held := map[ring.NodeID][]store.Span{}
	for _, n := range v.Nodes {
		a, err := rings[n.Ring].Range(ring.NodeID(n.ID))
		if err != nil {
			t.Fatal(err)
		}
		held[ring.NodeID(n.ID)] = store.StoredSpans(a, v.P)
	}
	return held
}

// inSpans reports whether id lies in one of spans.
func inSpans(spans []store.Span, id uint64) bool {
	return slices.ContainsFunc(spans, func(sp store.Span) bool { return sp.First <= id && id <= sp.Last })
}

// owedTo lists, ascending, the ids of recs that node id's stored spans
// under v hold: what the drain routes to it.
func owedTo(t *testing.T, v proto.View, id int, recs []pps.Encoded) []uint64 {
	t.Helper()
	spans := viewHeld(t, v)[ring.NodeID(id)]
	var ids []uint64
	for _, rec := range recs {
		if inSpans(spans, rec.ID) {
			ids = append(ids, rec.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestClusterHAFailoverRebuildsCorpus is docs/HA.md's case with nothing
// shared between replicas but the log directory: 4 nodes at p = 4, 400
// records loaded through the first leader, the leader killed. A node
// that joins while the successor takes over receives its whole stored
// set, and once it has left again the successor's ChangeP(4→2) grows
// the four nodes from 800 records to 1 200, so a keyword query returns
// every match with no failed leg. A successor whose backend missed the
// load moves nothing and the nodes stay at 800.
func TestClusterHAFailoverRebuildsCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("HA e2e is not short")
	}
	const nRecs = 400
	hc, err := Start(Options{
		Replicas: 3, Nodes: 4, P: 4, Seed: 43,
		Lease:     250 * time.Millisecond,
		Heartbeat: 60 * time.Millisecond,
		Frontend:  frontend.Config{Name: "fe-log"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	ctx := context.Background()

	// Evenly spaced ids, each half a step past a multiple of 1/400, so
	// no id sits on a range boundary and every count below is exact.
	want := map[uint64]bool{}
	var recs []pps.Encoded
	step := ^uint64(0) / nRecs
	for i := 0; i < nRecs; i++ {
		id := uint64(i)*step + step/2
		kw := "filler"
		if i%3 == 0 {
			kw = "target"
			want[id] = true
		}
		rec, err := hc.Enc.EncryptDocument(pps.Document{
			ID: id, Path: fmt.Sprintf("/d/%d", i), Size: int64(i),
			Modified: time.Unix(1.2e9, 0), Keywords: []string{kw},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := hc.LoadEncoded(recs); err != nil {
		t.Fatal(err)
	}
	if got := heldBy(hc.Nodes()); got != 2*nRecs {
		t.Fatalf("p=4: the 4 nodes hold %d records, want %d", got, 2*nRecs)
	}

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hc.KillReplica(hc.ReplicaIndex(leader))

	// A fifth node joins at once, with no leader known: its call lands
	// on the successor as soon as that serves, which is only after the
	// successor replayed the log into its backend.
	fifth, err := node.New(node.Config{Params: hc.Enc.ServerParams()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fifth.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var jr proto.JoinResp
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := hc.MCl.Call(ctx, proto.MMemberJoin, proto.JoinReq{Addr: srv.Addr(), SpeedHint: 1}, &jr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join after the leader kill: %v", err)
		}
	}
	next := hc.Leader()
	if next == nil || next == leader {
		t.Fatalf("no successor serves after the join (leader %v)", next)
	}
	coord, err := next.LeaderCoord()
	if err != nil {
		t.Fatal(err)
	}
	owed := owedTo(t, coord.View(), jr.ID, recs)
	if got := storedIDs(fifth); len(owed) == 0 || fmt.Sprint(got) != fmt.Sprint(owed) {
		t.Errorf("joined node holds %d records, owed %d", len(got), len(owed))
	}

	if err := hc.MCl.Call(ctx, proto.MMemberLeave, proto.LeaveReq{ID: jr.ID}, nil); err != nil {
		t.Fatal(err)
	}
	if err := hc.MCl.Call(ctx, proto.MMemberSetP, proto.SetPReq{P: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := heldBy(hc.Nodes()); got != 3*nRecs {
		t.Errorf("p=2 after the failover: the 4 nodes hold %d records, want %d", got, 3*nRecs)
	}

	if err := hc.SyncView(); err != nil {
		t.Fatal(err)
	}
	q, err := hc.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hc.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "p=2 after the failover")
	if res.Failures != 0 {
		t.Errorf("query recovered %d failed legs, want 0", res.Failures)
	}
}

// TestClusterLoadFencesCache: a load advances the ingest watermarks
// like any write, so a cached frontend's next query after it sees the
// new record instead of the cached answer. This frontend does not
// probe, so it cannot patch (its nodes report no MBits): the entry is
// dropped and the query fans out.
func TestClusterLoadFencesCache(t *testing.T) {
	c, err := Start(Options{Nodes: 4, P: 2, Seed: 5, Frontend: frontend.Config{CacheBudget: 1 << 20, ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	load := func(ids ...uint64) {
		t.Helper()
		var recs []pps.Encoded
		for _, id := range ids {
			rec, err := c.Enc.EncryptDocument(pps.Document{
				ID: id, Path: "/d", Size: 1, Modified: time.Unix(1.2e9, 0), Keywords: []string{"k"},
			})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		if err := c.LoadEncoded(recs); err != nil {
			t.Fatal(err)
		}
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "k"})
	if err != nil {
		t.Fatal(err)
	}
	query := func(phase string, wantIDs []uint64, wantSource string) {
		t.Helper()
		res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q, CacheControl: proto.CacheDefault})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.IDs) != fmt.Sprint(wantIDs) || res.Source != wantSource {
			t.Fatalf("%s: %v via %s, want %v via %s", phase, res.IDs, res.Source, wantIDs, wantSource)
		}
	}
	load(11, 12)
	query("first query", []uint64{11, 12}, frontend.SourceFanout)
	query("repeat", []uint64{11, 12}, frontend.SourceCache)
	load(13)
	query("after the second load", []uint64{11, 12, 13}, frontend.SourceFanout)
}
