package membership

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/proto"
)

// The register's safety properties, explored by seeded schedules rather
// than wall-clock chaos: three unstarted replicas on one manual clock,
// wired by an in-memory transport, driven one step at a time through
// their real campaign, propose and heartbeat code. A step is two bytes,
// kind and argument, so a schedule is a byte string the fuzzer can
// mutate and a failing one replays exactly.

const (
	stepCampaign  = iota // replica arg%3 campaigns
	stepPropose          // replica arg%3 proposes a synthetic state, if it leads
	stepHeartbeat        // replica arg%3 runs one heartbeat, if it leads
	stepAdvance          // the clock moves (arg%4+1) quarter leases
	stepFlip             // a link flips: see flipArg
	stepCorrupt          // replica arg%3 receives a corrupt push: see corruptPush
	stepKinds
)

const registerLease = time.Second

var errLinkDown = errors.New("link down")

// memNet connects replicas by directed links that are up or down. A
// request crosses from -> to and its answer crosses back, so a half-open
// link runs the peer's handler and still fails the caller.
type memNet struct {
	reps map[string]*Replica
	down map[[2]string]bool
}

type memPeer struct {
	net      *memNet
	from, to string
}

// Call carries in and the answer through encoding/json, as the wire
// does, so no replica ever holds a slice of another's entries.
func (p memPeer) Call(_ context.Context, method string, in, out interface{}) error {
	if p.net.down[[2]string{p.from, p.to}] {
		return errLinkDown
	}
	dst := p.net.reps[p.to]
	var resp interface{}
	switch method {
	case proto.MMemberLease:
		var req proto.LeaseReq
		if err := jsonCopy(in, &req); err != nil {
			return err
		}
		resp = dst.HandleLease(req)
	case proto.MMemberReplicate:
		var req proto.ReplicateReq
		if err := jsonCopy(in, &req); err != nil {
			return err
		}
		resp = dst.HandleReplicate(req)
	default:
		return fmt.Errorf("memNet: no method %s", method)
	}
	if p.net.down[[2]string{p.to, p.from}] {
		return errLinkDown
	}
	return jsonCopy(resp, out)
}

// jsonCopy decodes the JSON encoding of v into out.
func jsonCopy(v, out interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

func (memPeer) Close() error { return nil }

// flipArg is the argument of a stepFlip that flips the link from -> to,
// and its reverse too when both is set.
func flipArg(from, to int, both bool) byte {
	a := byte(from)
	if to != (from+1)%3 {
		a += 3
	}
	if both {
		a += 6
	}
	return a
}

// registerRun is one schedule in progress, plus everything the
// invariants remember across steps.
type registerRun struct {
	clk   *clock.Fake
	reps  []*Replica
	net   *memNet
	names []string

	leaderOf   map[uint64]string         // term -> the replica that led it
	commits    map[uint64]proto.LogEntry // index -> the entry committed there
	top        proto.LogEntry            // newest committed (term, index) seen
	lastCommit []uint64                  // per replica, for monotonicity
}

func newRegisterRun() (*registerRun, error) {
	h := &registerRun{
		clk:        clock.NewFake(time.Unix(1_700_000_000, 0)),
		names:      []string{"r:0", "r:1", "r:2"},
		leaderOf:   map[uint64]string{},
		commits:    map[uint64]proto.LogEntry{},
		lastCommit: make([]uint64, 3),
	}
	h.net = &memNet{reps: map[string]*Replica{}, down: map[[2]string]bool{}}
	for _, name := range h.names {
		r, err := NewReplica(ReplicaConfig{
			Self: name, Peers: h.names, Lease: registerLease,
			Coordinator: Config{P: 2, Clock: h.clk},
		})
		if err != nil {
			return nil, err
		}
		for to, cl := range r.peers {
			cl.Close() // never dialled
			r.peers[to] = memPeer{net: h.net, from: name, to: to}
		}
		h.reps = append(h.reps, r)
		h.net.reps[name] = r
	}
	return h, nil
}

func (h *registerRun) stop() {
	for _, r := range h.reps {
		r.Stop()
	}
}

// snapshot reads a replica's role, term and register under its lock.
func snapshot(r *Replica) (Role, uint64, proto.LogEntry, proto.LogEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role, r.term, r.accepted, r.committed
}

// atOrAbove reports whether entry a is at or above b in (term, index)
// order.
func atOrAbove(a, b proto.LogEntry) bool {
	return a.Term > b.Term || (a.Term == b.Term && a.Index >= b.Index)
}

// corruptPush is the split-brain or corruption the follower's two
// defensive rules exist for; no correct leader sends either shape, so
// each is refused or changes nothing but the term. Variant 0 rewrites
// the target's committed entry with another term and appends after it,
// with a watermark covering the append. Variant 1 is a newer term's
// watermark covering the target's uncommitted accepted entry, with no
// entry of its own.
func (h *registerRun) corruptPush(r *Replica, variant byte, step int) proto.ReplicateReq {
	_, term, acc, com := snapshot(r)
	forged := proto.ControlState{Epoch: -step, P: 2, Rings: 1}
	req := proto.ReplicateReq{Term: term + 1, Leader: "rogue:0"}
	switch {
	case variant%2 == 0 && com.Index > 0:
		req.Entries = []proto.LogEntry{
			{Index: com.Index, Term: com.Term + 1, State: forged},
			{Index: com.Index + 1, Term: req.Term, State: forged},
		}
		req.Commit = com.Index + 1
	case variant%2 == 1 && acc.Index > com.Index:
		req.Commit = acc.Index
	default:
		req.Commit = com.Index
	}
	return req
}

// step applies one schedule step and returns a short description.
func (h *registerRun) step(i int, kind, arg byte) string {
	r := h.reps[arg%3]
	switch kind % stepKinds {
	case stepCampaign:
		r.campaign()
		return fmt.Sprintf("%s campaigns", r.Self())
	case stepPropose:
		if role, term, _, _ := snapshot(r); role == RoleLeader {
			// A propose without a majority fails and steps the leader
			// down; the invariants judge whatever it left behind.
			_ = r.propose(term, proto.EntryState, func() proto.ControlState {
				return proto.ControlState{Epoch: 1000 + i, P: 2, Rings: 1, NextID: int(arg % 3)}
			})
		}
		return fmt.Sprintf("%s proposes", r.Self())
	case stepHeartbeat:
		r.heartbeat()
		return fmt.Sprintf("%s heartbeats", r.Self())
	case stepAdvance:
		d := registerLease * time.Duration(arg%4+1) / 4
		h.clk.Advance(d)
		return fmt.Sprintf("clock +%v", d)
	case stepFlip:
		from := int(arg % 3)
		to := (from + 1 + int(arg/3)%2) % 3
		links := [][2]string{{h.names[from], h.names[to]}}
		if arg/6%2 == 1 {
			links = append(links, [2]string{h.names[to], h.names[from]})
		}
		for _, l := range links {
			h.net.down[l] = !h.net.down[l]
		}
		return fmt.Sprintf("flip %v", links)
	default:
		req := h.corruptPush(r, arg/3, i)
		resp := r.HandleReplicate(req)
		return fmt.Sprintf("corrupt push %+v to %s: ok=%v", req, r.Self(), resp.OK)
	}
}

// check asserts the register invariants after a step. won is the
// replica that just won term wonTerm (nil if none), pre its accepted
// entry when it campaigned and topBefore the newest entry committed
// before it did.
func (h *registerRun) check(won *Replica, wonTerm uint64, pre, topBefore proto.LogEntry) error {
	if won != nil {
		if !atOrAbove(pre, topBefore) {
			return fmt.Errorf("%s won term %d holding %d.%d, below committed %d.%d",
				won.Self(), wonTerm, pre.Term, pre.Index, topBefore.Term, topBefore.Index)
		}
		if prev, ok := h.leaderOf[wonTerm]; ok && prev != won.Self() {
			return fmt.Errorf("term %d won by %s and %s", wonTerm, prev, won.Self())
		}
		h.leaderOf[wonTerm] = won.Self()
	}
	for i, r := range h.reps {
		role, term, acc, com := snapshot(r)
		if role == RoleLeader {
			if prev, ok := h.leaderOf[term]; ok && prev != r.Self() {
				return fmt.Errorf("term %d led by %s and %s", term, prev, r.Self())
			}
			h.leaderOf[term] = r.Self()
		}
		if com.Index > acc.Index {
			return fmt.Errorf("%s committed %d above accepted %d", r.Self(), com.Index, acc.Index)
		}
		if com.Index < h.lastCommit[i] {
			return fmt.Errorf("%s committed index fell %d -> %d", r.Self(), h.lastCommit[i], com.Index)
		}
		h.lastCommit[i] = com.Index
		if com.Index == 0 {
			continue
		}
		if prev, ok := h.commits[com.Index]; ok && !reflect.DeepEqual(prev, com) {
			return fmt.Errorf("index %d committed as %d/%+v and as %d/%+v on %s",
				com.Index, prev.Term, prev.State, com.Term, com.State, r.Self())
		}
		h.commits[com.Index] = com
		if atOrAbove(com, h.top) {
			h.top = com
		}
	}
	return nil
}

// runRegister plays a schedule and returns the first invariant it
// breaks, with the steps that led there.
func runRegister(steps []byte) error {
	h, err := newRegisterRun()
	if err != nil {
		return err
	}
	defer h.stop()
	var trace []string
	for i := 0; i+1 < len(steps); i += 2 {
		kind, arg := steps[i], steps[i+1]
		var won *Replica
		_, preTerm, pre, _ := snapshot(h.reps[arg%3])
		topBefore := h.top
		trace = append(trace, h.step(i/2, kind, arg))
		if kind%stepKinds == stepCampaign {
			// Only the leader of preTerm+1 makes entries of that term, and
			// becomeLeader proposes its barrier at once.
			if _, _, acc, _ := snapshot(h.reps[arg%3]); acc.Term == preTerm+1 {
				won = h.reps[arg%3]
			}
		}
		if err := h.check(won, preTerm+1, pre, topBefore); err != nil {
			if len(trace) > 12 {
				trace = trace[len(trace)-12:]
			}
			return fmt.Errorf("step %d: %v\nlast steps:\n  %s", i/2, err, strings.Join(trace, "\n  "))
		}
	}
	return nil
}

// registerScenarios are the register's unit-test scenarios replayed
// through real elections: a follower that misses entries and jumps the
// gap (TestReplicaGapResetsFollowerWindow), a stale candidate refused by
// the up-to-date rule (TestReplicaLeaseUpToDateRule), and corrupt pushes
// against committed and uncommitted entries
// (TestReplicaRefusesCommittedRewrite).
var registerScenarios = map[string][]byte{
	"gap": {
		stepCampaign, 0, // r:0 leads term 1
		stepFlip, flipArg(0, 2, false), // r:2 stops hearing r:0
		stepPropose, 0, stepPropose, 0, stepPropose, 0, // committed with r:1
		stepFlip, flipArg(0, 2, false),
		stepHeartbeat, 0, // r:2 jumps from nothing to the newest entry and commits it
	},
	"up-to-date": {
		stepCampaign, 0,
		stepFlip, flipArg(0, 2, true), // r:2 partitioned
		stepPropose, 0, stepPropose, 0, // committed with r:1 only
		stepFlip, flipArg(0, 1, true), // r:0 isolated
		stepAdvance, 3, stepAdvance, 3, // every lease lapses
		stepCampaign, 2, // refused by r:1: behind its accepted entry
		stepAdvance, 3,
		stepCampaign, 1, // wins with r:2's vote
		stepPropose, 1, stepHeartbeat, 1,
	},
	"corrupt": {
		stepCampaign, 0,
		stepPropose, 0, stepHeartbeat, 0,
		stepCorrupt, 1, // rewrite of r:1's committed entry
		stepFlip, flipArg(0, 1, true), stepFlip, flipArg(0, 2, true),
		stepPropose, 0, // fails: r:0 holds an uncommitted entry
		stepCorrupt, 3, // a newer term's watermark over it
		stepAdvance, 3, stepAdvance, 3,
		stepCampaign, 1, stepPropose, 1, stepHeartbeat, 1,
		stepFlip, flipArg(0, 1, true), stepFlip, flipArg(0, 2, true),
		stepHeartbeat, 1,
	},
}

// TestReplicaRegisterSeeds plays the scenarios and 500 seeded random
// schedules of 100 steps each.
func TestReplicaRegisterSeeds(t *testing.T) {
	for name, steps := range registerScenarios {
		if err := runRegister(steps); err != nil {
			t.Errorf("scenario %s: %v", name, err)
		}
	}
	for seed := int64(1); seed <= 500; seed++ {
		steps := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(steps)
		if err := runRegister(steps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzReplicaRegister(f *testing.F) {
	for _, steps := range registerScenarios {
		f.Add(steps)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 400 {
			steps = steps[:400]
		}
		if err := runRegister(steps); err != nil {
			t.Fatal(err)
		}
	})
}
