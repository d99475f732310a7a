package membership

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"roar/internal/proto"
	"roar/internal/store"
	"roar/internal/wire"
)

// startReplicas binds n listeners first (every replica must know the
// full peer list, including itself, before any is constructed), then
// serves each replica's handlers on its listener. All replicas share
// one backend store — the paper's shared-NFS stand-in (§4.1) — so a
// new leader can finish data-moving reconfigurations.
func startReplicas(t *testing.T, n int, coordCfg Config) []*Replica {
	t.Helper()
	backend := store.New()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	reps := make([]*Replica, n)
	for i := range reps {
		cfg := coordCfg
		cfg.Backend = backend
		rep, err := NewReplica(ReplicaConfig{
			Self:        peers[i],
			Peers:       peers,
			Lease:       150 * time.Millisecond,
			Heartbeat:   40 * time.Millisecond,
			Coordinator: cfg,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := wire.NewDispatcher()
		rep.RegisterHandlers(d)
		srv := wire.ServeListener(lns[i], d.Handle)
		t.Cleanup(func() { rep.Stop(); srv.Close() })
		reps[i] = rep
	}
	for _, rep := range reps {
		rep.Start()
	}
	return reps
}

// waitLeader polls until exactly one replica leads, and returns it.
func waitLeader(t *testing.T, reps []*Replica) *Replica {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var leaders []*Replica
		for _, r := range reps {
			if r.IsLeader() {
				leaders = append(leaders, r)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no single leader elected within deadline")
	return nil
}

func TestReplicaElectsSingleLeader(t *testing.T) {
	reps := startReplicas(t, 3, Config{P: 2})
	leader := waitLeader(t, reps)
	if leader.Term() == 0 {
		t.Error("elected leader should hold a non-zero term")
	}
	// Followers learn the leader address from replication traffic and
	// hand it out as a redirect hint.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range reps {
		if r == leader {
			continue
		}
		for r.Leader() != leader.Self() {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never learned leader %s (has %q)", r.Self(), leader.Self(), r.Leader())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if _, err := r.View(); err == nil {
			t.Error("follower View should refuse")
		} else if !strings.Contains(err.Error(), "leader="+leader.Self()) {
			t.Errorf("follower error should carry the redirect hint, got %v", err)
		}
	}
}

func TestReplicaReplicatesJoins(t *testing.T) {
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 2)
	reps := startReplicas(t, 3, Config{P: 2})
	leader := waitLeader(t, reps)
	ctx := context.Background()
	for _, a := range addrs {
		if _, err := leader.Join(ctx, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Join returns only after the resulting state committed on a
	// majority; within a heartbeat every live follower has applied it.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range reps {
		for {
			st, ok := r.CommittedState()
			if ok && len(st.Nodes) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never saw 2 nodes committed (state %+v ok=%v)", r.Self(), st, ok)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Mutations on a follower are refused with the redirect hint.
	for _, r := range reps {
		if r == leader {
			continue
		}
		_, err := r.Join(ctx, addrs[0], 1)
		var nle *NotLeaderError
		if !errors.As(err, &nle) {
			t.Fatalf("follower Join returned %v, want NotLeaderError", err)
		}
	}
	v, err := leader.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Term != leader.Term() {
		t.Errorf("view term %d should match leader term %d", v.Term, leader.Term())
	}
}

func TestReplicaFailoverPreservesStateAndFencesEpoch(t *testing.T) {
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 2)
	reps := startReplicas(t, 3, Config{P: 2})
	leader := waitLeader(t, reps)
	ctx := context.Background()
	for _, a := range addrs {
		if _, err := leader.Join(ctx, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	oldView, err := leader.View()
	if err != nil {
		t.Fatal(err)
	}
	oldTerm := leader.Term()

	leader.Stop()
	var rest []*Replica
	for _, r := range reps {
		if r != leader {
			rest = append(rest, r)
		}
	}
	next := waitLeader(t, rest)
	if next.Term() <= oldTerm {
		t.Errorf("new leader term %d should exceed old term %d", next.Term(), oldTerm)
	}
	v, err := next.View()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != 2 {
		t.Fatalf("new leader lost the topology: view has %d nodes", len(v.Nodes))
	}
	// The epoch floor guarantees the new leader's first view supersedes
	// every view the old leader could have published.
	if v.Term <= oldView.Term || v.Epoch <= oldView.Epoch {
		t.Errorf("new view (term %d epoch %d) must supersede old (term %d epoch %d)",
			v.Term, v.Epoch, oldView.Term, oldView.Epoch)
	}
}

func TestReplicaStaleTermRejected(t *testing.T) {
	reps := startReplicas(t, 3, Config{P: 2})
	leader := waitLeader(t, reps)
	var follower *Replica
	for _, r := range reps {
		if r != leader {
			follower = r
			break
		}
	}
	// A deposed leader pushing at a stale term is refused outright.
	resp := follower.HandleReplicate(proto.ReplicateReq{Term: 0, Leader: "ghost:1"})
	if resp.OK {
		t.Error("stale-term replicate must be rejected")
	}
	if resp.Term < leader.Term() {
		t.Errorf("rejection should carry the current term, got %d", resp.Term)
	}
	// A lease request cannot be granted while the live leader's grant
	// stands, even at a higher term — that is the lease-safety rule.
	lr := follower.HandleLease(proto.LeaseReq{Term: follower.Term() + 1, Candidate: "ghost:1", LastIndex: 1 << 30})
	if lr.Granted {
		t.Error("lease granted inside the live leader's grant window")
	}
}

func TestReplicaGapResetsFollowerWindow(t *testing.T) {
	r, err := NewReplica(ReplicaConfig{Self: "x:1", Peers: []string{"x:1", "x:2", "x:3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	mk := func(idx uint64, epoch int) proto.LogEntry {
		return proto.LogEntry{Index: idx, Term: 3, Kind: proto.EntryState, State: proto.ControlState{Epoch: epoch, P: 2, Rings: 1}}
	}
	resp := r.HandleReplicate(proto.ReplicateReq{Term: 3, Leader: "x:2", Commit: 1, Entries: []proto.LogEntry{mk(1, 1)}})
	if !resp.OK || resp.LastIndex != 1 {
		t.Fatalf("append rejected: %+v", resp)
	}
	// The leader's window moved on; entry 7 arrives with a gap. The
	// follower resets its window from the snapshot instead of refusing.
	resp = r.HandleReplicate(proto.ReplicateReq{Term: 3, Leader: "x:2", Commit: 7, Entries: []proto.LogEntry{mk(7, 9)}})
	if !resp.OK || resp.LastIndex != 7 {
		t.Fatalf("gap jump rejected: %+v", resp)
	}
	st, ok := r.CommittedState()
	if !ok || st.Epoch != 9 {
		t.Fatalf("committed state not applied across the gap: %+v ok=%v", st, ok)
	}
	// And an elected successor must cover the commit: candidates behind
	// it are refused.
	lr := r.HandleLease(proto.LeaseReq{Term: 99, Candidate: "x:3", LastIndex: 3})
	if lr.Granted {
		t.Error("candidate with an incomplete log must be refused")
	}
}

// clockedReplica builds an un-started replica driven by a manual clock,
// plus the advance function. Tests drive HandleReplicate/HandleLease
// directly; nothing races on the clock because no loops run.
func clockedReplica(t *testing.T) (*Replica, func(d time.Duration)) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	r, err := NewReplica(ReplicaConfig{
		Self:  "x:1",
		Peers: []string{"x:1", "x:2", "x:3"},
		Now:   func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r, func(d time.Duration) { now = now.Add(d) }
}

func stateEntry(idx, term uint64, epoch int) proto.LogEntry {
	return proto.LogEntry{Index: idx, Term: term, Kind: proto.EntryState,
		State: proto.ControlState{Epoch: epoch, P: 2, Rings: 1}}
}

// TestReplicaLeaseUpToDateRule: votes compare the candidate's LAST
// entry as (term, index), term first — a longer log of older-term
// entries must not beat a shorter log containing a newer committed
// decision. This is the reviewer's partitioned-ex-leader scenario: its
// stale tail can match or exceed our index while our entry at that
// index is a committed decision from a newer leader.
func TestReplicaLeaseUpToDateRule(t *testing.T) {
	r, advance := clockedReplica(t)
	resp := r.HandleReplicate(proto.ReplicateReq{Term: 2, Leader: "x:2", Commit: 2,
		Entries: []proto.LogEntry{stateEntry(1, 2, 1), stateEntry(2, 2, 2)}})
	if !resp.OK {
		t.Fatalf("seed append rejected: %+v", resp)
	}
	advance(3 * time.Second) // let x:2's lease grant expire — isolate the log rule

	if lr := r.HandleLease(proto.LeaseReq{Term: 99, Candidate: "x:3", LastIndex: 5, LastTerm: 1}); lr.Granted {
		t.Error("older last term granted despite a higher last index")
	}
	if lr := r.HandleLease(proto.LeaseReq{Term: 100, Candidate: "x:3", LastIndex: 1, LastTerm: 2}); lr.Granted {
		t.Error("equal last term but shorter log granted")
	}
	if lr := r.HandleLease(proto.LeaseReq{Term: 101, Candidate: "x:3", LastIndex: 2, LastTerm: 2}); !lr.Granted {
		t.Errorf("up-to-date candidate refused: %+v", lr)
	}
}

// TestReplicaVoteOutlivesLease: the lease grant expires by the clock,
// but the vote it carried does not — a term names at most one
// candidate forever, so two leader generations can never share a term
// and the frontends' (Term, Epoch) fence stays sound.
func TestReplicaVoteOutlivesLease(t *testing.T) {
	r, advance := clockedReplica(t)
	if lr := r.HandleLease(proto.LeaseReq{Term: 5, Candidate: "x:2"}); !lr.Granted {
		t.Fatalf("first candidate refused: %+v", lr)
	}
	advance(3 * time.Second) // grant expired; the vote must still stand
	if lr := r.HandleLease(proto.LeaseReq{Term: 5, Candidate: "x:3"}); lr.Granted {
		t.Error("expired lease re-granted term 5 to a second candidate")
	}
	if lr := r.HandleLease(proto.LeaseReq{Term: 5, Candidate: "x:2"}); !lr.Granted {
		t.Error("idempotent retry by the voted candidate refused")
	}
	advance(3 * time.Second) // the retry renewed x:2's lease; let it lapse
	if lr := r.HandleLease(proto.LeaseReq{Term: 6, Candidate: "x:3"}); !lr.Granted {
		t.Error("fresh term refused after the old vote")
	}
}

// TestReplicaRefusesCommittedRewrite: entries at or below the commit
// watermark are immutable. A push that would rewrite one with a
// different term (split-brain or corruption) is refused outright;
// overwriting the UNCOMMITTED tail remains legal — that is how a new
// leader re-replicates over a dead leader's unacknowledged entries.
func TestReplicaRefusesCommittedRewrite(t *testing.T) {
	r, _ := clockedReplica(t)
	resp := r.HandleReplicate(proto.ReplicateReq{Term: 2, Leader: "x:2", Commit: 2,
		Entries: []proto.LogEntry{stateEntry(1, 2, 1), stateEntry(2, 2, 2)}})
	if !resp.OK {
		t.Fatalf("seed append rejected: %+v", resp)
	}
	// A "leader" at a newer term tries to rewrite committed index 2.
	resp = r.HandleReplicate(proto.ReplicateReq{Term: 3, Leader: "x:3", Commit: 1,
		Entries: []proto.LogEntry{stateEntry(2, 3, 99)}})
	if resp.OK {
		t.Fatal("rewrite of a committed slot accepted")
	}
	if st, ok := r.CommittedState(); !ok || st.Epoch != 2 {
		t.Fatalf("committed state damaged by refused rewrite: %+v ok=%v", st, ok)
	}
	// Idempotent re-send of the committed entry is fine.
	if resp = r.HandleReplicate(proto.ReplicateReq{Term: 3, Leader: "x:3", Commit: 2,
		Entries: []proto.LogEntry{stateEntry(2, 2, 2)}}); !resp.OK {
		t.Fatalf("identical re-send of a committed entry refused: %+v", resp)
	}
	// Grow an uncommitted tail, then let a newer leader overwrite it.
	if resp = r.HandleReplicate(proto.ReplicateReq{Term: 3, Leader: "x:3", Commit: 2,
		Entries: []proto.LogEntry{stateEntry(3, 3, 3)}}); !resp.OK {
		t.Fatalf("uncommitted append refused: %+v", resp)
	}
	resp = r.HandleReplicate(proto.ReplicateReq{Term: 4, Leader: "x:2", Commit: 3,
		Entries: []proto.LogEntry{stateEntry(3, 4, 7)}})
	if !resp.OK || resp.LastIndex != 3 {
		t.Fatalf("legitimate overwrite of the uncommitted tail refused: %+v", resp)
	}
	if st, ok := r.CommittedState(); !ok || st.Epoch != 7 {
		t.Fatalf("overwritten tail not committed: %+v ok=%v", st, ok)
	}
}

func TestReplicaRedrivesInheritedChangeP(t *testing.T) {
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 2)
	reps := startReplicas(t, 3, Config{P: 4})
	leader := waitLeader(t, reps)
	ctx := context.Background()
	for _, a := range addrs {
		if _, err := leader.Join(ctx, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.LoadCorpus(ctx, corpus(t, enc, 40)); err != nil {
		t.Fatal(err)
	}
	// Commit the ChangeP intent exactly as the leader would, then kill
	// the leader before it executes — the worst-case crash point.
	c, err := leader.leaderCoord()
	if err != nil {
		t.Fatal(err)
	}
	intent := c.ExportState()
	intent.PendingP = 2
	if err := leader.propose(proto.EntryIntent, intent); err != nil {
		t.Fatal(err)
	}
	leader.Stop()

	var rest []*Replica
	for _, r := range reps {
		if r != leader {
			rest = append(rest, r)
		}
	}
	next := waitLeader(t, rest)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := next.View()
		if err == nil && v.P == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inherited ChangeP never completed: view %+v err %v", v, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The completion entry clears the pending marker. It commits after
	// the view with the new p is visible, so wait for it.
	for {
		st, ok := next.CommittedState()
		if ok && st.PendingP == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending marker should clear after re-drive: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
