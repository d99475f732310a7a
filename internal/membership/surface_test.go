package membership

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/proto"
	"roar/internal/store"
	"roar/internal/wire"
)

// fakeNodes serves n stand-in nodes that acknowledge every put and
// retain, and counts the puts they receive.
func fakeNodes(t *testing.T, n int) ([]string, *atomic.Int64) {
	t.Helper()
	puts := new(atomic.Int64)
	d := wire.NewDispatcher()
	d.Register(proto.MNodePut, func(context.Context, string, wire.Body) (interface{}, error) {
		puts.Add(1)
		return struct{}{}, nil
	})
	d.Register(proto.MNodeRetain, func(context.Context, string, wire.Body) (interface{}, error) {
		return struct{}{}, nil
	})
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := wire.Serve("127.0.0.1:0", d.Handle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs, puts
}

// followersOf waits until every replica but leader names it as leader,
// and returns them.
func followersOf(t *testing.T, reps []*Replica, leader *Replica) []*Replica {
	t.Helper()
	var fs []*Replica
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range reps {
		if r == leader {
			continue
		}
		for r.Leader() != leader.Self() {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never learned leader %s", r.Self(), leader.Self())
			}
			time.Sleep(5 * time.Millisecond)
		}
		fs = append(fs, r)
	}
	return fs
}

// intentLog records the index each ChangeP intent committed at. Its hook
// runs as OnIntentCommitted, on the leader right after the intent
// commits and before the ChangeP proposes anything else, so the leader's
// committed entry is then the intent.
type intentLog struct {
	mu   sync.Mutex
	reps []*Replica
	at   map[int]uint64 // target p -> index of its newest intent
}

func (l *intentLog) watch(reps []*Replica) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reps, l.at = reps, map[int]uint64{}
}

func (l *intentLog) hook(p int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.reps {
		r.mu.Lock()
		if e := r.committed; r.role == RoleLeader && e.Kind == proto.EntryIntent && e.State.PendingP == p {
			l.at[p] = e.Index
		}
		r.mu.Unlock()
	}
}

// index returns the index of the newest intent for p, 0 when none
// committed.
func (l *intentLog) index(p int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.at[p]
}

// registered reports which of methods the server at addr serves: a
// call to an unregistered method fails with the dispatcher's own error.
func registered(t *testing.T, addr string, methods []string) map[string]bool {
	t.Helper()
	cl := wire.NewClient(addr)
	defer cl.Close()
	out := map[string]bool{}
	for _, m := range methods {
		err := cl.Call(context.Background(), m, nil, nil)
		if err == nil || !strings.Contains(err.Error(), (&wire.UnknownMethodError{Method: m}).Error()) {
			out[m] = true
		}
	}
	return out
}

// TestMemberSurface drives the one member.* table over loopback wire
// against a 3-replica set: every method refuses on a follower with the
// redirect hint, every mutation has reached a follower before it
// returns, setp's intent commits before any node sees a push, and a
// standalone server registers exactly the replica's client surface.
func TestMemberSurface(t *testing.T) {
	enc := slimEncoder()
	nodes, puts := fakeNodes(t, 3)
	path := filepath.Join(t.TempDir(), "corpus.dat")
	if err := store.SaveFile(path, corpus(t, enc, 40)); err != nil {
		t.Fatal(err)
	}
	var intentPuts atomic.Int64
	intentPuts.Store(-1)
	intents := &intentLog{}
	reps, _ := startReplicas(t, 3, ReplicaConfig{
		Coordinator: Config{P: 4},
		OnIntentCommitted: func(p int) {
			intentPuts.Store(puts.Load())
			intents.hook(p)
		},
	})
	intents.watch(reps)
	leader := waitLeader(t, reps)
	followers := followersOf(t, reps, leader)

	// Ingest goes last: its drain commits the watermark from the
	// heartbeat, which would also propose an entry.
	calls := []struct {
		method  string
		req     interface{}
		mutates bool
	}{
		{proto.MMemberView, nil, false},
		{proto.MMemberJoin, proto.JoinReq{Addr: nodes[0], SpeedHint: 1}, true},
		{proto.MMemberJoin, proto.JoinReq{Addr: nodes[1], SpeedHint: 1}, true},
		{proto.MMemberJoin, proto.JoinReq{Addr: nodes[2], SpeedHint: 1}, true},
		{proto.MMemberLoad, proto.LoadReq{Path: path}, true},
		{proto.MMemberSetP, proto.SetPReq{P: 2}, true},
		{proto.MMemberHealth, proto.HealthReport{FE: "fe", Seq: 1, Nodes: []proto.NodeHealth{{ID: 0, Fails: 3}}}, true},
		{proto.MMemberLeave, proto.LeaveReq{ID: 2}, true},
		{proto.MMemberDrained, proto.DrainedReq{After: 0, Max: 8}, false},
		{proto.MMemberIngest, proto.IngestReq{Records: corpus(t, enc, 2)}, true},
	}
	ctx := context.Background()
	cl := wire.NewClient(leader.Self())
	defer cl.Close()
	var methods []string
	for _, tc := range calls {
		// (a) A follower refuses every method with the redirect hint.
		for _, f := range followers {
			fcl := wire.NewClient(f.Self())
			err := fcl.Call(ctx, tc.method, tc.req, nil)
			fcl.Close()
			if err == nil || !strings.Contains(err.Error(), "leader="+leader.Self()) {
				t.Errorf("%s on follower %s: %v, want a leader=%s redirect", tc.method, f.Self(), err, leader.Self())
			}
		}
		// (b) A mutation returns only once a follower holds its entry (the
		// follower's commit watermark follows on the next heartbeat); a
		// read appends nothing.
		before, putsBefore := leader.LastIndex(), puts.Load()
		if err := cl.Call(ctx, tc.method, tc.req, nil); err != nil {
			t.Fatalf("%s on leader: %v", tc.method, err)
		}
		var held uint64
		for _, f := range followers {
			held = max(held, f.LastIndex())
		}
		switch {
		case tc.mutates && held <= before:
			t.Errorf("%s returned with no follower past index %d", tc.method, before)
		case !tc.mutates && leader.LastIndex() != before:
			t.Errorf("%s proposed an entry (%d -> %d)", tc.method, before, leader.LastIndex())
		}
		// (c) setp's intent commits before the first push.
		if tc.method == proto.MMemberSetP {
			idx := intents.index(2)
			if got := intentPuts.Load(); got != putsBefore {
				t.Errorf("intent committed after %d puts, want %d (none during setp)", got, putsBefore)
			}
			if puts.Load() == putsBefore {
				t.Error("p 4 -> 2 moved no data")
			}
			if idx <= before || held < idx {
				t.Errorf("intent at index %d, leader was at %d, followers hold %d", idx, before, held)
			}
		}
		if len(methods) == 0 || methods[len(methods)-1] != tc.method {
			methods = append(methods, tc.method)
		}
	}
	if p := leader.P(); p != 2 {
		t.Errorf("leader at p=%d after setp 2", p)
	}

	// (e) A standalone server registers the same table; the replica adds
	// only its peer protocol. A lead that always fails makes each call a
	// side-effect-free probe.
	d := wire.NewDispatcher()
	RegisterHandlers(d, func() (*Coordinator, error) { return nil, errors.New("probe") })
	srv, err := wire.Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probe := append([]string{proto.MMemberLease, proto.MMemberReplicate, "member.nope"}, methods...)
	standalone, replica := registered(t, srv.Addr(), probe), registered(t, followers[0].Self(), probe)
	delete(replica, proto.MMemberLease)
	delete(replica, proto.MMemberReplicate)
	if len(standalone) != len(methods) || len(replica) != len(standalone) {
		t.Fatalf("standalone serves %v, replica %v, want the table's %v", standalone, replica, methods)
	}
	for _, m := range methods {
		if !standalone[m] || !replica[m] {
			t.Errorf("%s: standalone %v, replica %v", m, standalone[m], replica[m])
		}
	}
}

// TestMemberSurfaceLeaderLosesQuorum: (d) a leader whose followers are
// gone fails a join within two leases, and answers the next call
// instead of deadlocking on the coordinator its failed commit closed.
func TestMemberSurfaceLeaderLosesQuorum(t *testing.T) {
	const lease = 150 * time.Millisecond
	nodes, _ := fakeNodes(t, 1)
	reps, kill := startReplicas(t, 3, ReplicaConfig{Coordinator: Config{P: 2}, Lease: lease, Heartbeat: lease / 4})
	leader := waitLeader(t, reps)
	for _, f := range followersOf(t, reps, leader) {
		kill(f)
	}
	cl := wire.NewClient(leader.Self())
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*lease)
	defer cancel()
	start := time.Now()
	err := cl.Call(ctx, proto.MMemberJoin, proto.JoinReq{Addr: nodes[0], SpeedHint: 1}, nil)
	took := time.Since(start)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("join without a majority: %v after %v", err, took)
	}
	if took > 2*lease {
		t.Errorf("join failed after %v, want within two leases (%v)", took, 2*lease)
	}
	if err := cl.Call(ctx, proto.MMemberView, nil, &proto.View{}); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("view on the deposed leader: %v", err)
	}
	if leader.IsLeader() {
		t.Error("leader kept its role without a majority")
	}
}

// TestMemberSurfaceStaleTermCommitRefused: the commit hook of a
// coordinator built for an earlier term is refused even while its
// replica leads again, so a deposed coordinator's late mutation cannot
// land in its successor's log.
func TestMemberSurfaceStaleTermCommitRefused(t *testing.T) {
	r, _ := clockedReplica(t)
	r.mu.Lock()
	r.role, r.term = RoleLeader, 5
	r.mu.Unlock()
	var nle *NotLeaderError
	if err := r.commitEntry(4, proto.EntryState, func() proto.ControlState { return proto.ControlState{P: 2, Rings: 1} }); !errors.As(err, &nle) {
		t.Fatalf("term-4 commit on a term-5 leader: %v, want NotLeaderError", err)
	}
	if n := r.LastIndex(); n != 0 {
		t.Fatalf("refused commit appended: last index %d", n)
	}
}

// TestMemberSurfaceAutoscaler: (f) autoscalers bound to every replica
// record nothing on followers; on the leader a forced p-down runs
// through the coordinator's commit hook, so its intent commits.
func TestMemberSurfaceAutoscaler(t *testing.T) {
	nodes, _ := fakeNodes(t, 4)
	intents := &intentLog{}
	reps, _ := startReplicas(t, 3, ReplicaConfig{Coordinator: Config{P: 4}, OnIntentCommitted: intents.hook})
	intents.watch(reps)
	leader := waitLeader(t, reps)
	followers := followersOf(t, reps, leader)
	ctx := context.Background()
	c := leaderCoord(t, leader)
	for _, a := range nodes {
		if _, err := c.Join(ctx, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := AutoscaleConfig{SustainTicks: 1, CostGateFraction: 10}
	scalers := map[*Replica]*Autoscaler{}
	for _, r := range reps {
		scalers[r] = r.NewAutoscaler(cfg)
	}
	if _, err := c.ReportHealth(proto.HealthReport{FE: "fe", Seq: 1, Shed: 100}); err != nil {
		t.Fatal(err)
	}
	for _, f := range followers {
		if ds := scalers[f].Step(ctx); ds != nil || len(scalers[f].Decisions()) != 0 {
			t.Errorf("follower %s autoscaler acted: %v", f.Self(), ds)
		}
	}
	ds := scalers[leader].Step(ctx)
	if len(ds) != 1 || ds[0].Action != ActionPDown || ds[0].Err != "" {
		t.Fatalf("leader autoscaler: %+v, want one clean p-down", ds)
	}
	if idx := intents.index(3); idx == 0 {
		t.Error("autoscaler p-down committed no intent")
	}
	if p := leader.P(); p != 3 {
		t.Errorf("p=%d after p-down from 4", p)
	}
}
