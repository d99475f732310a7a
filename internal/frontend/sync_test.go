package frontend

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/wire"
)

func TestApplyViewFencesStaleTermAndEpoch(t *testing.T) {
	enc := slimEncoder()
	v, _ := testView(t, enc, 2, 1)
	v.Term, v.Epoch = 3, 10
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}

	stale := v
	stale.Term, stale.Epoch = 2, 99 // deposed leader: any epoch loses to a newer term
	if err := fe.ApplyView(stale); !errors.Is(err, ErrStaleView) {
		t.Errorf("older term accepted: %v", err)
	}
	stale = v
	stale.Epoch = 9 // same leader, older publish
	if err := fe.ApplyView(stale); !errors.Is(err, ErrStaleView) {
		t.Errorf("older epoch accepted: %v", err)
	}
	if got := fe.View(); got.Term != 3 || got.Epoch != 10 {
		t.Errorf("installed view moved: term %d epoch %d", got.Term, got.Epoch)
	}

	// Equal is a refresh, newer term supersedes even at a lower epoch.
	if err := fe.ApplyView(v); err != nil {
		t.Errorf("re-applying the installed view: %v", err)
	}
	next := v
	next.Term, next.Epoch = 4, 1
	if err := fe.ApplyView(next); err != nil {
		t.Errorf("newer term rejected: %v", err)
	}
}

// scriptedMember fakes the coordinator: each Call pops the next error
// from the script (nil = success) and records what was sent.
type scriptedMember struct {
	errs   []error
	view   proto.View
	health proto.HealthResp
	calls  []string
	sent   []proto.HealthReport
}

func (m *scriptedMember) Call(_ context.Context, method string, in, out interface{}) error {
	m.calls = append(m.calls, method)
	if rep, ok := in.(proto.HealthReport); ok {
		m.sent = append(m.sent, rep)
	}
	var err error
	if len(m.errs) > 0 {
		err, m.errs = m.errs[0], m.errs[1:]
	}
	if err != nil {
		return err
	}
	switch method {
	case proto.MMemberView:
		*out.(*proto.View) = m.view
	case proto.MMemberHealth:
		*out.(*proto.HealthResp) = m.health
	}
	return nil
}

// seedShed plants one unit of shed evidence in the frontend's counters
// and returns a getter for the pending count.
func seedShed(fe *Frontend) func() int64 {
	fe.shed.Add(1)
	return func() int64 { return fe.shed.Load() }
}

// syncTestBed builds a frontend with an installed view, seeded shed
// evidence, and a syncer over the scripted member.
func syncTestBed(t *testing.T, m *scriptedMember) (*Frontend, *Syncer, func() int64) {
	t.Helper()
	enc := slimEncoder()
	v, _ := testView(t, enc, 2, 1)
	fe := New(Config{})
	t.Cleanup(fe.Close)
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	m.health = proto.HealthResp{Epoch: v.Epoch} // no surprise view re-pull
	pending := seedShed(fe)
	s := NewSyncer(fe, m, SyncConfig{})
	return fe, s, pending
}

// TestPushHealthAnyFailureRecredits: whatever kind of error fails a
// push (the network ate it, or the coordinator's handler said no, for
// whatever reason), the snapshotted report is re-credited, the error surfaces,
// and the next push is the same member.health call carrying the
// evidence: no failure switches the syncer to another method or form.
func TestPushHealthAnyFailureRecredits(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"transport", errors.New("wire: connection refused")},
		{"transport quoting a remote", fmt.Errorf("wire: connection lost: proxy said %q", "unknown method")},
		{"remote uncoded", &wire.RemoteError{Method: proto.MMemberHealth, Msg: "membership: not leader"}},
		{"remote unknown-method", &wire.RemoteError{Method: proto.MMemberHealth,
			Msg: fmt.Sprintf("wire: unknown method %q", proto.MMemberHealth)}},
		{"remote trailing-bytes", &wire.RemoteError{Method: proto.MMemberHealth,
			Msg: "invalid character 'x' after top-level value"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &scriptedMember{errs: []error{tc.err}}
			_, s, pending := syncTestBed(t, m)
			if err := s.PushHealthOnce(context.Background()); !errors.Is(err, tc.err) {
				t.Fatalf("push returned %v, want the scripted error", err)
			}
			if pending() != 1 {
				t.Errorf("shed evidence not re-credited exactly once: pending=%d", pending())
			}
			if err := s.PushHealthOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if pending() != 0 {
				t.Errorf("delivered evidence still pending: %d", pending())
			}
			for i, method := range m.calls {
				if method != proto.MMemberHealth {
					t.Errorf("call %d went to %s, want %s", i, method, proto.MMemberHealth)
				}
			}
			if got := m.sent[len(m.sent)-1].Shed; got != 1 {
				t.Errorf("retried report carries Shed=%d, want the re-credited 1", got)
			}
		})
	}
}

func TestPushHealthEpochAheadRepullsView(t *testing.T) {
	enc := slimEncoder()
	v, _ := testView(t, enc, 2, 1)
	v.Epoch = 1
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	newer := v
	newer.Epoch = 5
	m := &scriptedMember{view: newer, health: proto.HealthResp{Epoch: 5}}
	s := NewSyncer(fe, m, SyncConfig{})
	if err := s.PushHealthOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fe.View().Epoch; got != 5 {
		t.Errorf("epoch-ahead reply should trigger an immediate view pull; installed epoch %d", got)
	}
}

// TestPollDeliversDrainToCache: a drain moves no (Term, Epoch), so a
// poll that finds the installed view must still hand its drained
// watermark to the cache fence, or a cached frontend keeps answering
// from before a write its nodes already hold. The poll must not install
// that view either: local suspicion survives it.
func TestPollDeliversDrainToCache(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{CacheBudget: 1 << 20, ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	ask := func() Result {
		t.Helper()
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if r := ask(); len(r.IDs) != 1 {
		t.Fatalf("before the write: %d ids, want 1", len(r.IDs))
	}
	rec, err := enc.EncryptDocument(pps.Document{
		ID: 7 << 40, Path: "/x", Size: 5, Modified: time.Unix(1.2e9, 0), Keywords: []string{"aa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd.Put(proto.PutReq{Records: []pps.Encoded{rec}})
	}
	fe.nodes[0].observe(false, 0)

	drained := v
	drained.Drained = v.Drained + 1
	NewSyncer(fe, &scriptedMember{view: drained}, SyncConfig{}).Poll(context.Background())
	if st := fe.Health()[0]; st != stateSuspected.String() {
		t.Errorf("a poll of the installed view reset node 0 to %q", st)
	}
	fe.nodes[0].observe(true, 0)
	if r := ask(); len(r.IDs) != 2 {
		t.Fatalf("after a poll carrying the drain: %d ids from %s, want 2", len(r.IDs), r.Source)
	}
}
