// Replicated coordinator (control-plane HA): three membership replicas
// elect one leader via an epoch-fenced lease and the leader appends
// every state mutation — view publishes, quarantine flips, ChangeP,
// ring power changes, decommissions, autoscale decisions — to a
// decision log pushed to followers over member.replicate, with majority
// acknowledgment before the entry commits. Every entry carries a full
// ControlState snapshot (proto/replicate.go), so follower apply is a
// replacement and catch-up after a partition is "send the tail" — or
// just the newest entry once the leader's window has moved past the
// follower's gap.
//
// Lease protocol (Raft-shaped, snapshot-simplified):
//
//   - Terms fence everything. A replica that sees a higher term becomes
//     a follower at that term; a leader whose push is rejected with a
//     higher term steps down. Views published to frontends carry the
//     leader's term, so a deposed coordinator can never roll the data
//     plane back (frontend.ErrStaleView).
//   - Votes are leases, but the vote and the lease expire differently.
//     The grant (term, candidate, expiry) bounds leadership TIME: a
//     voter refuses new candidates while an unexpired grant stands, so
//     two leases cannot overlap. The vote (votedTerm, votedFor) never
//     expires: a voter that granted term T to one candidate refuses
//     every other candidate at T forever, even after the lease runs
//     out — otherwise a replica that never observed T could campaign
//     into it after the original leader died and two leader
//     generations would share a term, breaking both election safety
//     and the frontends' (Term, Epoch) view fence. Accepted replicate
//     traffic implicitly renews the leader's grant on each follower
//     (and pins the leader as that term's vote) — member.lease is
//     election-only traffic.
//   - A candidate must prove log completeness with Raft's up-to-date
//     rule: voters refuse candidates whose last log entry
//     (LastTerm, LastIndex) is behind their own, comparing terms first
//     and indexes only to break ties. Index alone is not enough — a
//     deposed leader's uncommitted tail can match a voter's committed
//     index while carrying an older term; electing it would let the
//     overwrite path truncate a committed decision.
//   - A committed log slot is immutable: a follower refuses any
//     replicate push that would rewrite an entry at or below its
//     commit watermark with a different term (defense in depth — no
//     correct leader can send one).
//   - The leader's own lease extends from each replication round that a
//     majority acknowledges; when it cannot reach a majority for a full
//     lease duration it steps down rather than serve stale reads.
//
// ChangeP survives leader death because the reconfiguration is bracketed
// by log entries: an EntryIntent (State.PendingP = target) commits
// BEFORE any data moves, and the closing EntryState commits after. A
// new leader that finds PendingP set in its inherited state re-drives
// the reconfiguration — node-side pushes are idempotent (stores merge
// by record id), so finishing a half-done ChangeP twice is safe.
package membership

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"roar/internal/ingest"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/wire"
)

// Role is a replica's current election role.
type Role int

const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// NotLeaderError rejects a mutation or view pull on a non-leader
// replica. Leader, when known, is the redirect hint; the error text
// keeps the "leader=<addr>" suffix machine-parseable because it crosses
// the wire as a string (coordclient extracts it from the call failure).
type NotLeaderError struct {
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "membership: not leader"
	}
	return "membership: not leader; leader=" + e.Leader
}

// logWindow bounds the in-memory decision-log tail kept for follower
// catch-up. Correctness never depends on the window: every entry is a
// full snapshot, so a follower too far behind is reset from the newest
// entry alone.
const logWindow = 64

// ReplicaConfig tunes one control-plane replica.
type ReplicaConfig struct {
	// Self is this replica's wire address — its identity in elections.
	Self string
	// Peers lists all replica addresses, including Self. Majority is
	// computed over this set; run an odd count.
	Peers []string
	// Lease is the leadership lease duration: followers start an
	// election when the leader has been silent this long, and a leader
	// that cannot reach a majority for this long steps down. Default 2s.
	Lease time.Duration
	// Heartbeat is the replication/renewal cadence. Default Lease/4.
	Heartbeat time.Duration
	// Coordinator is the local coordinator configuration (must match
	// across replicas; Backend should point at the shared corpus store).
	Coordinator Config
	// Now/After inject the clock (tests). Nil means real time.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// Logf, when set, receives one line per role transition.
	Logf func(format string, args ...any)
	// OnIntentCommitted, when set, runs on the leader after a ChangeP
	// intent entry commits and before any data moves — the crash-point
	// hook chaos tests use to kill a leader mid-reconfiguration at the
	// exact moment the intent is durable but the work is not.
	OnIntentCommitted func(newP int)
	// Ingest tunes the durable ingest drain the leader runs when
	// Coordinator.WAL is set. The drained watermark replicates via the
	// heartbeat (maybeReplicateIngest), NOT from Ingest.OnAdvance — the
	// drain goroutine must never propose, because a failed propose steps
	// the leader down and closing the coordinator waits for that very
	// goroutine.
	Ingest IngestConfig
	// OpenWAL, when set, opens the shared ingest WAL lazily on winning
	// an election (and the coordinator closes it on step-down). Separate
	// processes sharing a WAL directory must use this rather than
	// Coordinator.WAL: opening at startup would race the other replicas
	// on segment creation, and a follower's handle would go stale the
	// moment the leader appends. The lease keeps open handles exclusive
	// the same way it keeps leaders exclusive. In-process replica sets
	// (one *ingest.WAL shared by reference) keep using Coordinator.WAL.
	OpenWAL func() (*ingest.WAL, error)
}

func (rc ReplicaConfig) withDefaults() ReplicaConfig {
	if rc.Lease <= 0 {
		rc.Lease = 2 * time.Second
	}
	if rc.Heartbeat <= 0 {
		rc.Heartbeat = rc.Lease / 4
	}
	if rc.Now == nil {
		rc.Now = time.Now //lint:allow wallclock — clock-injection default
	}
	if rc.After == nil {
		rc.After = time.After //lint:allow wallclock — clock-injection default
	}
	return rc
}

// Replica is one member of the replicated control plane.
type Replica struct {
	cfg ReplicaConfig

	mu   sync.Mutex
	role Role
	term uint64
	// leader is the last known leader address ("" when unknown).
	leader string
	// Follower-side lease grant: an unexpired grant to one candidate or
	// leader blocks grants to anyone else, which is what keeps two
	// leases from overlapping.
	grantTerm  uint64
	grantTo    string
	grantUntil time.Time
	// The vote, unlike the grant, never expires: one candidate per term,
	// forever (in-memory — a restarted replica rejoins with a fresh term
	// and an empty log, so it re-enters as a follower rather than
	// re-voting old terms). This is what makes a term name at most one
	// leader generation.
	votedTerm uint64
	votedFor  string
	lastHeard time.Time // last accepted leader traffic

	// Decision log window. log is contiguous; when non-empty its last
	// entry has Index == lastIndex and Term == lastTerm.
	log       []proto.LogEntry
	lastIndex uint64
	lastTerm  uint64
	commit    uint64
	committed proto.ControlState
	hasState  bool // committed holds a real snapshot

	// Leader-side state.
	coord      *Coordinator      // live state machine; non-nil only while leader
	ackIndex   map[string]uint64 // per-peer acknowledged last index
	leaseUntil time.Time         // leader lease expiry (majority-ack extended)

	peers map[string]*wire.Client // excludes Self

	// proposeMu serialises proposals so log order matches ack order.
	proposeMu sync.Mutex

	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// NewReplica builds a replica. Call Start to begin the election and
// replication loops, and RegisterHandlers to expose it on a wire server.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("membership: replica needs a Self address")
	}
	self := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("membership: Peers must include Self (%s)", cfg.Self)
	}
	r := &Replica{
		cfg:      cfg,
		peers:    map[string]*wire.Client{},
		ackIndex: map[string]uint64{},
	}
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			r.peers[p] = wire.NewClient(p)
		}
	}
	r.lifeCtx, r.lifeCancel = context.WithCancel(context.Background()) //lint:allow background — the replica's lifetime is this root; cancelled in Stop
	return r, nil
}

// Start launches the election/heartbeat loop.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.run()
}

// Stop halts the loops and closes peer and node clients.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { r.lifeCancel() })
	r.wg.Wait()
	r.mu.Lock()
	coord := r.coord
	r.coord = nil
	r.role = RoleFollower
	peers := r.peers
	r.peers = map[string]*wire.Client{}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	for _, cl := range peers {
		cl.Close()
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("replica %s: "+format, append([]any{r.cfg.Self}, args...)...)
	}
}

func (r *Replica) majority() int { return len(r.cfg.Peers)/2 + 1 }

// run is the role loop: followers watch for leader silence and campaign,
// leaders replicate on the heartbeat cadence.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		role := r.role
		r.mu.Unlock()
		var wait time.Duration
		if role == RoleLeader {
			wait = r.cfg.Heartbeat
		} else {
			// Jittered election timeout: [Lease, 1.5·Lease) so replicas
			// rarely campaign simultaneously.
			wait = r.cfg.Lease + time.Duration(rand.Int63n(int64(r.cfg.Lease/2)+1))
		}
		select {
		case <-r.lifeCtx.Done():
			return
		case <-r.cfg.After(wait):
		}
		r.mu.Lock()
		switch r.role {
		case RoleLeader:
			r.mu.Unlock()
			r.heartbeat()
		default:
			silent := r.cfg.Now().Sub(r.lastHeard) >= r.cfg.Lease
			r.mu.Unlock()
			if silent {
				r.campaign()
			}
		}
	}
}

// campaign runs one election round: bump the term, grant the lease to
// ourselves, and ask every peer for theirs.
func (r *Replica) campaign() {
	r.mu.Lock()
	if r.role == RoleLeader {
		r.mu.Unlock()
		return
	}
	now := r.cfg.Now()
	// Honour our own outstanding grant: campaigning against a candidate
	// we just voted for would hand out a second lease inside the first
	// one's window.
	if r.grantTo != "" && r.grantTo != r.cfg.Self && now.Before(r.grantUntil) {
		r.mu.Unlock()
		return
	}
	r.role = RoleCandidate
	r.term++
	term := r.term
	last := r.lastIndex
	lastTerm := r.lastTerm
	r.votedTerm, r.votedFor = term, r.cfg.Self
	r.grantTerm, r.grantTo, r.grantUntil = term, r.cfg.Self, now.Add(r.cfg.Lease)
	r.leader = ""
	r.mu.Unlock()
	r.logf("campaigning at term %d (last entry %d.%d)", term, lastTerm, last)

	req := proto.LeaseReq{Term: term, Candidate: r.cfg.Self, LastIndex: last, LastTerm: lastTerm}
	votes := r.pollPeers(term, func(ctx context.Context, cl *wire.Client) bool {
		var resp proto.LeaseResp
		if err := cl.Call(ctx, proto.MMemberLease, req, &resp); err != nil {
			return false
		}
		if resp.Term > term {
			r.observeTerm(resp.Term)
			return false
		}
		return resp.Granted
	})
	if votes+1 >= r.majority() { // +1: our own grant
		r.becomeLeader(term)
	} else {
		r.mu.Lock()
		if r.role == RoleCandidate && r.term == term {
			r.role = RoleFollower
		}
		r.mu.Unlock()
	}
}

// pollPeers runs one parallel round of fn against every peer with a
// half-lease deadline and returns how many returned true.
func (r *Replica) pollPeers(term uint64, fn func(ctx context.Context, cl *wire.Client) bool) int {
	r.mu.Lock()
	clients := make([]*wire.Client, 0, len(r.peers))
	for _, cl := range r.peers {
		clients = append(clients, cl)
	}
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(r.lifeCtx, r.cfg.Lease/2)
	defer cancel()
	var wg sync.WaitGroup
	results := make(chan bool, len(clients))
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *wire.Client) {
			defer wg.Done()
			results <- fn(ctx, cl)
		}(cl)
	}
	wg.Wait()
	close(results)
	n := 0
	for ok := range results {
		if ok {
			n++
		}
	}
	_ = term
	return n
}

// observeTerm adopts a higher term seen in any response, stepping down
// if we were leading.
func (r *Replica) observeTerm(term uint64) {
	r.mu.Lock()
	var coord *Coordinator
	if term > r.term {
		r.term = term
		r.leader = ""
		if r.role == RoleLeader {
			coord = r.stepDownLocked("saw term %d", term)
		}
		r.role = RoleFollower
	}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
}

// stepDownLocked demotes a leader. It returns the retired coordinator
// for the caller to Close outside r.mu (Close takes the coordinator's
// own locks and closes node clients, which can block on in-flight
// calls).
func (r *Replica) stepDownLocked(format string, args ...any) *Coordinator {
	coord := r.coord
	r.coord = nil
	r.role = RoleFollower
	r.logf("stepping down: "+format, args...)
	return coord
}

// becomeLeader installs the elected role: rebuild a live coordinator
// from the newest log entry, fence the epoch past everything the old
// leader published, commit a takeover barrier entry, and re-drive any
// reconfiguration whose intent committed without its completion.
//
// The rebuild base is the log TAIL, not the commit watermark: an entry
// the old leader majority-acked may sit above every survivor's commit
// (the watermark travels one heartbeat behind), and the election rule —
// voters refuse candidates whose last entry (term, index) is behind
// their own — puts that entry on whoever wins. Building from anything
// older would lose a decision the old leader already confirmed to its
// caller.
func (r *Replica) becomeLeader(term uint64) {
	r.mu.Lock()
	if r.term != term || r.role != RoleCandidate {
		r.mu.Unlock()
		return
	}
	base, hasBase := r.committed, r.hasState
	if len(r.log) > 0 {
		base, hasBase = r.log[len(r.log)-1].State, true
	}
	// Multi-process replica sets open the shared WAL only while leading
	// (the lease that keeps leaders exclusive keeps writers exclusive);
	// the fresh scan also picks up everything the previous leader wrote.
	coordCfg := r.cfg.Coordinator
	var wal *ingest.WAL
	if r.cfg.OpenWAL != nil && coordCfg.WAL == nil {
		var err error
		if wal, err = r.cfg.OpenWAL(); err != nil {
			r.role = RoleFollower
			r.mu.Unlock()
			r.logf("takeover aborted: ingest WAL: %v", err)
			return
		}
		coordCfg.WAL = wal
	}
	var (
		coord *Coordinator
		err   error
	)
	if hasBase {
		coord, err = NewFromState(coordCfg, base)
	} else {
		coord, err = New(coordCfg)
	}
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		r.role = RoleFollower
		r.mu.Unlock()
		r.logf("takeover aborted: %v", err)
		return
	}
	coord.ownsWAL = wal != nil
	coord.SetEpochFloor(base.Epoch + 1)
	r.role = RoleLeader
	r.leader = r.cfg.Self
	r.coord = coord
	r.ackIndex = map[string]uint64{}
	r.leaseUntil = r.cfg.Now().Add(r.cfg.Lease)
	pendingP := base.PendingP
	r.mu.Unlock()
	r.logf("elected leader at term %d", term)

	st := coord.ExportState()
	st.PendingP = pendingP // keep the intent durable across takeovers
	if err := r.propose(proto.EntryTakeover, st); err != nil {
		r.logf("takeover barrier failed: %v", err)
		return
	}
	// Resume the ingest drain from the replicated watermark: the old
	// leader's drained-but-unreplicated tail (at most one heartbeat of
	// lag) is re-delivered, and node-side dedup absorbs it.
	if coord.IngestEnabled() {
		if err := coord.StartIngest(r.cfg.Ingest); err != nil {
			r.logf("ingest drain resume failed: %v", err)
		} else {
			r.logf("ingest drain resumed from watermark %d", coord.IngestDrained())
		}
	}
	if pendingP != 0 {
		// Finish the half-done ChangeP on a fresh goroutine: propose and
		// the data pushes both block, and the caller is the election
		// loop. Pushes are idempotent, so re-driving a transition the
		// old leader half-completed is safe.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.logf("re-driving ChangeP(%d) inherited from term < %d", pendingP, term)
			if err := r.ChangeP(r.lifeCtx, pendingP); err != nil {
				r.logf("inherited ChangeP(%d) failed: %v", pendingP, err)
			}
		}()
	}
}

// maybeReplicateIngest commits the ingest drained watermark when it has
// moved past the committed snapshot. Runs on the election loop's
// goroutine (never the drain goroutine — see ReplicaConfig.Ingest), so
// the watermark replicates at most one heartbeat behind delivery; the
// lag re-delivers on failover and node-side dedup absorbs it.
func (r *Replica) maybeReplicateIngest() {
	c, err := r.leaderCoord()
	if err != nil {
		return
	}
	r.mu.Lock()
	committed := r.committed.IngestDrained
	r.mu.Unlock()
	if c.IngestDrained() > committed {
		if err := r.proposeState(); err != nil {
			r.logf("ingest watermark replication failed: %v", err)
		}
	}
}

// heartbeat runs one replication round: push the log tail (possibly
// empty) to every peer. A majority of acknowledgments extends the
// leader lease; a full lease without one steps the leader down.
func (r *Replica) heartbeat() {
	r.maybeReplicateIngest()
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return
	}
	term := r.term
	start := r.cfg.Now()
	r.mu.Unlock()
	acks := r.replicateRound(term)
	r.mu.Lock()
	var coord *Coordinator
	if r.role == RoleLeader && r.term == term {
		if acks+1 >= r.majority() {
			r.leaseUntil = start.Add(r.cfg.Lease)
		} else if !r.cfg.Now().Before(r.leaseUntil) {
			coord = r.stepDownLocked("lease expired without majority contact")
		}
	}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
}

// replicateRound pushes each peer everything past its acknowledged
// index and returns how many peers acknowledged the leader's current
// last entry (or are fully caught up).
func (r *Replica) replicateRound(term uint64) int {
	r.mu.Lock()
	if r.role != RoleLeader || r.term != term {
		r.mu.Unlock()
		return 0
	}
	target := r.lastIndex
	commit := r.commit
	type job struct {
		cl      *wire.Client
		peer    string
		entries []proto.LogEntry
	}
	jobs := make([]job, 0, len(r.peers))
	for p, cl := range r.peers {
		jobs = append(jobs, job{cl: cl, peer: p, entries: r.entriesFromLocked(r.ackIndex[p] + 1)})
	}
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(r.lifeCtx, r.cfg.Lease/2)
	defer cancel()
	var wg sync.WaitGroup
	acks := make(chan string, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			req := proto.ReplicateReq{Term: term, Leader: r.cfg.Self, Commit: commit, Entries: j.entries}
			var resp proto.ReplicateResp
			if err := j.cl.Call(ctx, proto.MMemberReplicate, req, &resp); err != nil {
				return
			}
			if resp.Term > term {
				r.observeTerm(resp.Term)
				return
			}
			if resp.OK {
				r.mu.Lock()
				if resp.LastIndex > r.ackIndex[j.peer] {
					r.ackIndex[j.peer] = resp.LastIndex
				}
				ok := resp.LastIndex >= target
				r.mu.Unlock()
				if ok {
					acks <- j.peer
				}
			}
		}(j)
	}
	wg.Wait()
	close(acks)
	n := 0
	for range acks {
		n++
	}
	return n
}

// entriesFromLocked returns the log tail from index `from` (clamped to
// the window — a peer behind the window is reset from the oldest entry
// we still have, which carries a full snapshot).
func (r *Replica) entriesFromLocked(from uint64) []proto.LogEntry {
	if len(r.log) == 0 {
		return nil
	}
	first := r.log[0].Index
	if from < first {
		from = first
	}
	if from > r.lastIndex {
		return nil
	}
	tail := r.log[from-first:]
	out := make([]proto.LogEntry, len(tail))
	copy(out, tail)
	return out
}

// propose appends one decision to the log and replicates it, returning
// nil only after a majority has acknowledged it (the entry is then
// committed). Proposals are serialised; a propose that cannot reach a
// majority steps the leader down and errors.
func (r *Replica) propose(kind uint8, st proto.ControlState) error {
	r.proposeMu.Lock()
	defer r.proposeMu.Unlock()
	r.mu.Lock()
	if r.role != RoleLeader {
		leader := r.leader
		r.mu.Unlock()
		return &NotLeaderError{Leader: leader}
	}
	term := r.term
	idx := r.lastIndex + 1
	entry := proto.LogEntry{Index: idx, Term: term, Kind: kind, State: st}
	r.log = append(r.log, entry)
	r.lastIndex = idx
	r.lastTerm = term
	r.trimLogLocked()
	start := r.cfg.Now()
	r.mu.Unlock()

	acks := r.replicateRound(term)
	r.mu.Lock()
	if r.role != RoleLeader || r.term != term {
		leader := r.leader
		r.mu.Unlock()
		return &NotLeaderError{Leader: leader}
	}
	if acks+1 < r.majority() {
		coord := r.stepDownLocked("entry %d reached %d/%d acks", idx, acks+1, r.majority())
		r.mu.Unlock()
		if coord != nil {
			coord.Close()
		}
		return fmt.Errorf("membership: lost leadership replicating entry %d (%d/%d acks)", idx, acks+1, r.majority())
	}
	if idx > r.commit {
		r.commit = idx
		r.committed = entry.State
		r.hasState = true
	}
	r.leaseUntil = start.Add(r.cfg.Lease)
	r.mu.Unlock()
	return nil
}

func (r *Replica) trimLogLocked() {
	if len(r.log) > logWindow {
		drop := len(r.log) - logWindow
		r.log = append(r.log[:0], r.log[drop:]...)
	}
}

// HandleReplicate is the follower half of member.replicate: accept the
// leader's entries and commit watermark, renew its lease, reject stale
// terms.
func (r *Replica) HandleReplicate(req proto.ReplicateReq) proto.ReplicateResp {
	r.mu.Lock()
	if req.Term < r.term {
		resp := proto.ReplicateResp{Term: r.term, OK: false, LastIndex: r.lastIndex}
		r.mu.Unlock()
		return resp
	}
	var coord *Coordinator
	if req.Term > r.term {
		r.term = req.Term
		if r.role == RoleLeader {
			coord = r.stepDownLocked("replicate from newer leader %s at term %d", req.Leader, req.Term)
		}
		r.role = RoleFollower
	} else if r.role == RoleLeader {
		// Same term, different self-declared leader: impossible under
		// majority leases; refuse rather than split-brain.
		resp := proto.ReplicateResp{Term: r.term, OK: false, LastIndex: r.lastIndex}
		r.mu.Unlock()
		return resp
	} else {
		r.role = RoleFollower
	}
	// A committed slot is immutable: refuse any push that would rewrite
	// one with a different term BEFORE mutating anything. With the
	// election up-to-date rule no correct leader can send such a push,
	// so reaching this is split-brain or corruption — and truncating
	// would silently lose a committed decision.
	for _, e := range req.Entries {
		if e.Index <= r.commit && len(r.log) > 0 && e.Index >= r.log[0].Index &&
			r.log[e.Index-r.log[0].Index].Term != e.Term {
			resp := proto.ReplicateResp{Term: r.term, OK: false, LastIndex: r.lastIndex}
			r.mu.Unlock()
			if coord != nil {
				coord.Close()
			}
			return resp
		}
	}
	now := r.cfg.Now()
	r.leader = req.Leader
	r.lastHeard = now
	// Accepted replication traffic IS the lease renewal — and pins the
	// leader as this term's vote, so once the lease lapses no OTHER
	// candidate can be granted the same term.
	if r.votedTerm < req.Term {
		r.votedTerm, r.votedFor = req.Term, req.Leader
	}
	r.grantTerm, r.grantTo, r.grantUntil = req.Term, req.Leader, now.Add(r.cfg.Lease)

	for _, e := range req.Entries {
		switch {
		case e.Index <= r.commit:
			// Already committed (and, per the scan above, identical):
			// never truncate at or below the commit watermark.
		case e.Index <= r.lastIndex:
			// Overwrite: drop our conflicting UNCOMMITTED suffix and
			// append the leader's entry.
			if len(r.log) > 0 && e.Index >= r.log[0].Index {
				keep := e.Index - r.log[0].Index
				r.log = r.log[:keep]
			} else {
				r.log = r.log[:0]
			}
			r.log = append(r.log, e)
			r.lastIndex = e.Index
		case e.Index == r.lastIndex+1:
			r.log = append(r.log, e)
			r.lastIndex = e.Index
		default:
			// Gap: we fell behind the leader's window. Every entry is a
			// full snapshot, so reset the window from this entry.
			r.log = append(r.log[:0], e)
			r.lastIndex = e.Index
		}
	}
	if len(r.log) > 0 {
		r.lastTerm = r.log[len(r.log)-1].Term
	}
	r.trimLogLocked()
	if req.Commit > r.commit {
		c := req.Commit
		if c > r.lastIndex {
			c = r.lastIndex
		}
		if len(r.log) > 0 && c >= r.log[0].Index {
			r.commit = c
			r.committed = r.log[c-r.log[0].Index].State
			r.hasState = true
		}
	}
	resp := proto.ReplicateResp{Term: r.term, OK: true, LastIndex: r.lastIndex}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	return resp
}

// HandleLease is the voter half of member.lease: grant the leadership
// lease when the term is current, no unexpired grant stands for someone
// else, and the candidate's log covers our commit.
func (r *Replica) HandleLease(req proto.LeaseReq) proto.LeaseResp {
	r.mu.Lock()
	resp := proto.LeaseResp{LastIndex: r.lastIndex}
	if req.Term < r.term {
		resp.Term = r.term
		resp.Leader = r.leader
		r.mu.Unlock()
		return resp
	}
	var coord *Coordinator
	if req.Term > r.term {
		r.term = req.Term
		r.leader = ""
		if r.role == RoleLeader {
			coord = r.stepDownLocked("lease request at term %d", req.Term)
		}
		r.role = RoleFollower
	}
	resp.Term = r.term
	now := r.cfg.Now()
	switch {
	case r.votedTerm == req.Term && r.votedFor != "" && r.votedFor != req.Candidate:
		// Already voted at this term for someone else. A vote is
		// forever, unlike the lease: re-granting an old term after its
		// lease expired would let two leader generations share a term,
		// and the frontends' (Term, Epoch) fence assumes a term names
		// exactly one leader. (Re-granting the SAME candidate is an
		// idempotent retry and falls through.)
		resp.Granted = false
		resp.Leader = r.leader
	case r.grantTo != "" && r.grantTo != req.Candidate && now.Before(r.grantUntil):
		// An unexpired lease stands (possibly renewed by replicate
		// traffic from the live leader). Granting now could make two
		// leases overlap, so refuse even though the term is newer.
		resp.Granted = false
		resp.Leader = r.leader
	case req.LastTerm < r.lastTerm || (req.LastTerm == r.lastTerm && req.LastIndex < r.lastIndex):
		// Raft's up-to-date rule over the candidate's LAST entry, term
		// first, index to break ties. Term matters: a partitioned
		// ex-leader can sit on an uncommitted tail whose index matches
		// ours while our entry at that index is a committed decision
		// from a newer leader — electing it would truncate the
		// committed entry on every follower. And the LAST index — not
		// just our commit — matters because the watermark travels one
		// heartbeat behind majority acks: our tail may hold an entry the
		// dead leader already confirmed to its caller.
		resp.Granted = false
	default:
		resp.Granted = true
		r.votedTerm, r.votedFor = req.Term, req.Candidate
		r.grantTerm, r.grantTo, r.grantUntil = req.Term, req.Candidate, now.Add(r.cfg.Lease)
	}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	return resp
}

// --- accessors ---

// Self returns this replica's address.
func (r *Replica) Self() string { return r.cfg.Self }

// IsLeader reports whether this replica currently holds the lease.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == RoleLeader
}

// Leader returns the last known leader address ("" when unknown).
func (r *Replica) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// Term returns the replica's current election term.
func (r *Replica) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// CommittedState returns the latest majority-committed snapshot and
// whether one exists yet.
func (r *Replica) CommittedState() (proto.ControlState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed, r.hasState
}

// LastIndex returns the replica's last log index.
func (r *Replica) LastIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastIndex
}

// leaderCoord returns the live coordinator when this replica leads,
// else a NotLeaderError carrying the redirect hint.
func (r *Replica) leaderCoord() (*Coordinator, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RoleLeader || r.coord == nil {
		return nil, &NotLeaderError{Leader: r.leader}
	}
	return r.coord, nil
}

// proposeState replicates the leader coordinator's current state as an
// ordinary committed entry.
func (r *Replica) proposeState() error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	return r.propose(proto.EntryState, c.ExportState())
}

// proposeIfAdvanced replicates only when the coordinator's epoch moved
// past the committed snapshot — the cheap path for high-rate inputs
// (health reports) that only occasionally flip a quarantine verdict.
func (r *Replica) proposeIfAdvanced() error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	r.mu.Lock()
	committedEpoch := r.committed.Epoch
	r.mu.Unlock()
	if c.Epoch() == committedEpoch {
		return nil
	}
	return r.propose(proto.EntryState, c.ExportState())
}

// --- leader-guarded control-plane operations ---
//
// Each mutation executes on the live coordinator first (which performs
// any data movement synchronously) and then commits the resulting state
// to the replicated log; the call fails if majority acknowledgment
// cannot be reached, at which point this replica has stepped down and
// the caller should retry against the new leader.

// View snapshots the cluster for frontends, stamped with the leader's
// term so deposed leaders' views are rejectable. Non-leaders refuse
// with a redirect hint — frontends fail over rather than read stale
// views.
func (r *Replica) View() (proto.View, error) {
	r.mu.Lock()
	if r.role != RoleLeader || r.coord == nil {
		err := &NotLeaderError{Leader: r.leader}
		r.mu.Unlock()
		return proto.View{}, err
	}
	coord := r.coord
	term := r.term
	r.mu.Unlock()
	v := coord.View()
	v.Term = term
	return v, nil
}

// Join registers a node through the replicated control plane.
func (r *Replica) Join(ctx context.Context, addr string, speedHint float64) (proto.JoinResp, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return proto.JoinResp{}, err
	}
	resp, err := c.Join(ctx, addr, speedHint)
	if err != nil {
		return proto.JoinResp{}, err
	}
	return resp, r.proposeState()
}

// JoinRack registers a node with a rack label (§4.9.2 placement).
func (r *Replica) JoinRack(ctx context.Context, addr string, speedHint float64, rack string) (proto.JoinResp, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return proto.JoinResp{}, err
	}
	resp, err := c.JoinRack(ctx, addr, speedHint, rack)
	if err != nil {
		return proto.JoinResp{}, err
	}
	return resp, r.proposeState()
}

// Leave removes a node gracefully.
func (r *Replica) Leave(ctx context.Context, id ring.NodeID) error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	if err := c.Leave(ctx, id); err != nil {
		return err
	}
	return r.proposeState()
}

// Decommission removes a dead node (autoscale decisions included).
func (r *Replica) Decommission(ctx context.Context, id ring.NodeID) error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	if err := c.Decommission(ctx, id); err != nil {
		return err
	}
	return r.proposeState()
}

// ChangeP drives the §4.5 reconfiguration through the log: the intent
// (PendingP) commits BEFORE any data moves, so a leader crash mid-way
// leaves a durable instruction for its successor; the closing state
// entry commits after the coordinator publishes the new level.
func (r *Replica) ChangeP(ctx context.Context, newP int) error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	if newP == c.P() {
		// Already there (e.g. a re-driven intent the old leader actually
		// finished); just clear the pending marker.
		return r.proposeState()
	}
	intent := c.ExportState()
	intent.PendingP = newP
	if err := r.propose(proto.EntryIntent, intent); err != nil {
		return err
	}
	if r.cfg.OnIntentCommitted != nil {
		r.cfg.OnIntentCommitted(newP)
	}
	if err := c.ChangeP(ctx, newP); err != nil {
		return err
	}
	return r.proposeState()
}

// SetRingEnabled powers a ring on or off (§4.9.1).
func (r *Replica) SetRingEnabled(ctx context.Context, k int, enabled bool) error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	if err := c.SetRingEnabled(ctx, k, enabled); err != nil {
		return err
	}
	return r.proposeState()
}

// LoadCorpus installs the corpus and pushes stored sets (leader-only;
// the backend store itself is shared across replicas). The closing
// proposeState is the term fence: if this replica was deposed while
// loading, the propose fails and the caller retries against the real
// leader instead of trusting a corpus only a dead leadership saw.
func (r *Replica) LoadCorpus(ctx context.Context, recs []pps.Encoded) error {
	c, err := r.leaderCoord()
	if err != nil {
		return err
	}
	if err := c.LoadCorpus(ctx, recs); err != nil {
		return err
	}
	return r.proposeState()
}

// AddObject stores one new object and pushes it to its replica set,
// then fences the mutation with the current term: a deposed leader's
// accepted object errors out (the backend insert itself is idempotent
// on the shared store, so the retry against the new leader converges).
func (r *Replica) AddObject(ctx context.Context, rec pps.Encoded) (int, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return 0, err
	}
	n, err := c.AddObject(ctx, rec)
	if err != nil {
		return n, err
	}
	return n, r.proposeState()
}

// IngestAppend durably accepts records into the leader's ingest WAL and
// fences the acceptance with the current term before acknowledging: a
// deposed leader's accepted batch errors out, the producer retries on
// the new leader, and record-ID dedup absorbs the duplicate append.
func (r *Replica) IngestAppend(ctx context.Context, recs []pps.Encoded) (proto.IngestResp, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return proto.IngestResp{}, err
	}
	seq, err := c.IngestAppend(ctx, recs)
	if err != nil {
		return proto.IngestResp{}, err
	}
	if err := r.proposeState(); err != nil {
		return proto.IngestResp{}, err
	}
	return proto.IngestResp{Seq: seq, Drained: c.IngestDrained()}, nil
}

// IngestDrained reads the leader's live delivery watermark (read-only;
// no log entry). Errors on a non-leader.
func (r *Replica) IngestDrained() (uint64, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return 0, err
	}
	return c.IngestDrained(), nil
}

// ReportHealth folds a frontend health report into the aggregator and
// replicates any quarantine flip it caused.
func (r *Replica) ReportHealth(rep proto.HealthReport) (proto.HealthResp, error) {
	c, err := r.leaderCoord()
	if err != nil {
		return proto.HealthResp{}, err
	}
	resp := c.ReportHealth(rep)
	if err := r.proposeIfAdvanced(); err != nil {
		return proto.HealthResp{}, err
	}
	return resp, nil
}

// --- controlPlane (autoscaler) ---

// FleetPressure snapshots capacity telemetry; zero on non-leaders
// (followers receive no health reports).
func (r *Replica) FleetPressure() FleetPressure {
	c, err := r.leaderCoord()
	if err != nil {
		return FleetPressure{}
	}
	return c.FleetPressure()
}

// P returns the partitioning level: live on the leader, the committed
// snapshot's on followers.
func (r *Replica) P() int {
	if c, err := r.leaderCoord(); err == nil {
		return c.P()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hasState && r.committed.P > 0 {
		return r.committed.P
	}
	return r.cfg.Coordinator.P
}

// ringPowerState mirrors Coordinator.ringPowerState from the live or
// committed state.
func (r *Replica) ringPowerState() (disabled, enabled []int) {
	if c, err := r.leaderCoord(); err == nil {
		return c.ringPowerState()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	off := map[int]bool{}
	for _, k := range r.committed.Disabled {
		off[k] = true
	}
	pop := map[int]int{}
	for _, n := range r.committed.Nodes {
		pop[n.Ring]++
	}
	for k := 0; k < r.committed.Rings; k++ {
		if pop[k] == 0 {
			continue
		}
		if off[k] {
			disabled = append(disabled, k)
		} else {
			enabled = append(enabled, k)
		}
	}
	return disabled, enabled
}

// schedulableNodes counts nodes on enabled rings.
func (r *Replica) schedulableNodes() int {
	if c, err := r.leaderCoord(); err == nil {
		return c.schedulableNodes()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	off := map[int]bool{}
	for _, k := range r.committed.Disabled {
		off[k] = true
	}
	n := 0
	for _, ns := range r.committed.Nodes {
		if !off[ns.Ring] {
			n++
		}
	}
	return n
}

// NewAutoscaler binds the elasticity controller to the replicated
// control plane: decisions execute through the leader-guarded levers
// (and therefore commit to the log), and the controller holds its fire
// entirely on non-leader replicas.
func (r *Replica) NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	return newAutoscaler(r, cfg)
}

// RegisterHandlers exposes the replica on a wire dispatcher: the
// replication/lease RPCs plus the same membership surface a standalone
// coordinator serves, leader-guarded so callers fail over.
func (r *Replica) RegisterHandlers(d *wire.Dispatcher) {
	d.Register(proto.MMemberReplicate, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.ReplicateReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return r.HandleReplicate(req), nil
	})
	d.Register(proto.MMemberLease, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.LeaseReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return r.HandleLease(req), nil
	})
	d.Register(proto.MMemberView, func(_ context.Context, _ string, _ wire.Body) (interface{}, error) {
		return r.View()
	})
	d.Register(proto.MMemberJoin, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.JoinReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return r.Join(ctx, req.Addr, req.SpeedHint)
	})
	d.Register(proto.MMemberLeave, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.LeaveReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, r.Leave(ctx, ring.NodeID(req.ID))
	})
	d.Register(proto.MMemberSetP, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.SetPReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, r.ChangeP(ctx, req.P)
	})
	d.Register(proto.MMemberHealth, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.HealthReport
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return r.ReportHealth(req)
	})
	d.Register(proto.MMemberIngest, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.IngestReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return r.IngestAppend(ctx, req.Records)
	})
}
