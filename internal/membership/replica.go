// Replicated coordinator (control-plane HA): three membership replicas
// elect one leader via an epoch-fenced lease, and the leader's decisions
// reach followers over member.replicate; a decision commits once a
// majority holds it. Every decision is a LogEntry carrying a full
// ControlState snapshot (proto/replicate.go), and proposals are
// serialised until a majority acks, so a replica never needs more than
// two entries. It keeps a register, not a log: accepted, the newest
// entry it holds, and committed, the newest it knows a majority holds.
// Catch-up after a partition is one push of the leader's accepted entry.
//
// Who owns what:
//
//   - Election (campaign, HandleLease, the lease and vote rules below)
//     and the register (propose, replicateRound, HandleReplicate) belong
//     to the Replica. Both reach the other replicas only through
//     pollPeers, over the one-method peer interface.
//   - Apply is the follower half of HandleReplicate (adopt the committed
//     snapshot) plus becomeLeader (rebuild a live Coordinator from
//     accepted, raise its epoch floor, commit a takeover barrier and
//     resume the drain, and only then publish it and re-drive an
//     inherited ChangeP). The log is read into the backend by the first
//     push, not at takeover.
//   - Commit points belong to the Coordinator. takeover installs
//     commitEntry on the coordinator it builds for term T, with T; every
//     mutator calls it after its change (ChangeP also before its first
//     push), so member.* handlers, the autoscaler and tests call the
//     Coordinator that LeaderCoord returns and nothing else. The one
//     commit the Replica makes itself is the drained watermark, from the
//     heartbeat (maybeReplicateIngest).
//
// Lease protocol (Raft-shaped, snapshot-simplified):
//
//   - Terms fence everything. A replica that sees a higher term becomes
//     a follower at that term (observeTerm); a leader whose push is
//     rejected with a higher term steps down. Views published to
//     frontends carry the leader's term, so a deposed coordinator can
//     never roll the data plane back (frontend.ErrStaleView).
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
//   - A candidate must prove it holds every committed decision with
//     Raft's up-to-date rule: voters refuse candidates whose accepted
//     entry (LastTerm, LastIndex) is behind their own, comparing terms
//     first and indexes only to break ties. Index alone is not enough —
//     a deposed leader's uncommitted entry can match a voter's committed
//     index while carrying an older term.
//   - A committed entry is immutable and only the current term's entries
//     commit by watermark: the follower rules at HandleReplicate. Both
//     are defense in depth — no correct leader sends a push either rule
//     refuses.
//   - The leader's own lease extends from each replication round that a
//     majority acknowledges; when it cannot reach a majority for a full
//     lease duration it steps down rather than serve stale reads.
//
// ChangeP survives leader death because the reconfiguration is bracketed
// by entries: an EntryIntent (State.PendingP = target) commits BEFORE
// any data moves, and the closing EntryState commits after. A new leader
// that finds PendingP set in its inherited state re-drives the
// reconfiguration — node-side pushes are idempotent (stores merge by
// record id), so finishing a half-done ChangeP twice is safe.
package membership

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/clock"
	"roar/internal/ingest"
	"roar/internal/proto"
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

// peer is how a replica reaches another one: member.lease and
// member.replicate calls, and Close. *wire.Client satisfies it; tests
// put in-memory links in Replica.peers instead.
type peer interface {
	Call(ctx context.Context, method string, in, out interface{}) error
	Close() error
}

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
	// Coordinator is the local coordinator configuration; it must match
	// across replicas, and it names no WAL: the leader opens its log
	// through OpenWAL.
	Coordinator Config
	// Logf, when set, receives one line per role transition.
	Logf func(format string, args ...any)
	// OnIntentCommitted, when set, runs on the leader after a ChangeP
	// intent entry commits and before any data moves — the crash-point
	// hook chaos tests use to kill a leader mid-reconfiguration at the
	// exact moment the intent is durable but the work is not.
	OnIntentCommitted func(newP int)
	// Ingest tunes the durable ingest drain the leader runs when
	// OpenWAL is set. The drained watermark replicates via the
	// heartbeat (maybeReplicateIngest), never from the drain goroutine: a
	// failed propose steps the leader down, and closing the coordinator
	// waits for that very goroutine.
	Ingest IngestConfig
	// OpenWAL opens the log directory the replicas share, on winning an
	// election (the coordinator closes it on step-down); Open validates
	// every frame, so a leader whose log cannot be opened steps down, and
	// its first push reads the log into its backend. Opening at start-up
	// would race the other replicas on segment creation, and a
	// follower's handle would go stale the moment the leader appends.
	// The lease keeps open handles exclusive the same way it keeps
	// leaders exclusive. Without it the leader takes no records.
	OpenWAL func() (*ingest.WAL, error)
}

func (rc ReplicaConfig) withDefaults() ReplicaConfig {
	if rc.Lease <= 0 {
		rc.Lease = 2 * time.Second
	}
	if rc.Heartbeat <= 0 {
		rc.Heartbeat = rc.Lease / 4
	}
	rc.Coordinator.Clock = clock.Or(rc.Coordinator.Clock)
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
	// and an empty register, so it re-enters as a follower rather than
	// re-voting old terms). This is what makes a term name at most one
	// leader generation.
	votedTerm uint64
	votedFor  string
	lastHeard time.Time // last accepted leader traffic

	// The decision register: accepted is the newest entry this replica
	// holds, committed the newest it knows a majority holds. Index 0
	// means none yet, and committed.Index <= accepted.Index always.
	accepted  proto.LogEntry
	committed proto.LogEntry

	// Leader-side state.
	coord      *Coordinator      // live state machine; non-nil only while leader
	ackIndex   map[string]uint64 // per-peer acknowledged accepted index
	leaseUntil time.Time         // leader lease expiry (majority-ack extended)

	peers map[string]peer // excludes Self

	// proposeMu serialises proposals: one entry is in flight at a time,
	// which is what lets two slots stand in for a log.
	proposeMu sync.Mutex

	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// NewReplica builds a replica. Call Start to begin the election and
// replication loops; serve it with r.RegisterHandlers (the peer
// protocol) and RegisterHandlers(d, r.LeaderCoord) (the member.*
// surface).
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
	if cfg.Coordinator.WAL != nil {
		return nil, fmt.Errorf("membership: a replica opens its log through OpenWAL, not Coordinator.WAL")
	}
	r := &Replica{
		cfg:      cfg,
		peers:    map[string]peer{},
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
	r.peers = nil
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	for _, p := range peers {
		p.Close()
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("replica %s: "+format, append([]any{r.cfg.Self}, args...)...)
	}
}

func (r *Replica) majority() int { return len(r.cfg.Peers)/2 + 1 }

func (r *Replica) now() time.Time { return r.cfg.Coordinator.Clock.Now() }

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
		case <-clock.After(r.cfg.Coordinator.Clock, wait):
		}
		r.mu.Lock()
		switch r.role {
		case RoleLeader:
			r.mu.Unlock()
			r.heartbeat()
		default:
			silent := r.now().Sub(r.lastHeard) >= r.cfg.Lease
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
	now := r.now()
	// Honour our own outstanding grant: campaigning against a candidate
	// we just voted for would hand out a second lease inside the first
	// one's window.
	if r.grantTo != "" && r.grantTo != r.cfg.Self && now.Before(r.grantUntil) {
		r.mu.Unlock()
		return
	}
	r.role = RoleCandidate
	r.term++
	term, last := r.term, r.accepted
	r.votedTerm, r.votedFor = term, r.cfg.Self
	r.grantTerm, r.grantTo, r.grantUntil = term, r.cfg.Self, now.Add(r.cfg.Lease)
	r.leader = ""
	r.mu.Unlock()
	r.logf("campaigning at term %d (last entry %d.%d)", term, last.Term, last.Index)

	req := proto.LeaseReq{Term: term, Candidate: r.cfg.Self, LastIndex: last.Index, LastTerm: last.Term}
	votes := r.pollPeers(func(ctx context.Context, _ string, p peer) bool {
		var resp proto.LeaseResp
		if err := p.Call(ctx, proto.MMemberLease, req, &resp); err != nil {
			return false
		}
		r.observeTerm(resp.Term)
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

// pollPeers is the replica's one fan-out toward its peers: it runs fn
// against every peer in parallel with a half-lease deadline and returns
// how many returned true. Elections and replication rounds both go
// through it.
func (r *Replica) pollPeers(fn func(ctx context.Context, name string, p peer) bool) int {
	r.mu.Lock()
	peers := maps.Clone(r.peers)
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(r.lifeCtx, r.cfg.Lease/2)
	defer cancel()
	var wg sync.WaitGroup
	var n atomic.Int32
	for name, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fn(ctx, name, p) {
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(n.Load())
}

// observeTerm is the one "newer term wins" rule, for a term seen in a
// request or a response alike: adopt it as a follower that knows no
// leader yet, stepping down if we were leading.
func (r *Replica) observeTerm(term uint64) {
	r.mu.Lock()
	var coord *Coordinator
	if term > r.term {
		if r.role == RoleLeader {
			coord = r.stepDownLocked("saw term %d", term)
		}
		r.term, r.leader, r.role = term, "", RoleFollower
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
// from the accepted entry (takeover), publish it once the takeover
// barrier has committed, then re-drive any reconfiguration whose intent
// committed without its completion. Until it is published LeaderCoord
// refuses. Its backend starts empty: the first push reads the log into
// it.
//
// The rebuild base is accepted, not committed: an entry the old leader
// majority-acked may sit above every survivor's committed (the
// watermark travels one heartbeat behind), and the election rule —
// voters refuse candidates whose accepted (term, index) is behind their
// own — puts that entry on whoever wins. Building from anything older
// would lose a decision the old leader already confirmed to its caller.
// (committed never runs ahead of accepted, so accepted is always the
// newer of the two.)
func (r *Replica) becomeLeader(term uint64) {
	r.mu.Lock()
	if r.term != term || r.role != RoleCandidate {
		r.mu.Unlock()
		return
	}
	base := r.accepted.State
	r.role = RoleLeader
	r.leader = r.cfg.Self
	r.ackIndex = map[string]uint64{}
	r.leaseUntil = r.now().Add(r.cfg.Lease)
	r.mu.Unlock()
	r.logf("elected leader at term %d", term)

	coord, err := r.takeover(term, base)
	r.mu.Lock()
	led := r.role == RoleLeader && r.term == term
	switch {
	case err != nil && led:
		r.stepDownLocked("takeover failed: %v", err)
	case err == nil && led:
		r.coord = coord
	}
	r.mu.Unlock()
	if err != nil {
		r.logf("takeover aborted: %v", err)
		return
	}
	if !led {
		coord.Close()
		return
	}
	if pendingP := base.PendingP; pendingP != 0 {
		// Finish the half-done ChangeP on a fresh goroutine: propose and
		// the data pushes both block, and the caller is the election
		// loop. Pushes are idempotent, so re-driving a transition the
		// old leader half-completed is safe.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.logf("re-driving ChangeP(%d) inherited from term < %d", pendingP, term)
			if err := coord.ChangeP(r.lifeCtx, pendingP); err != nil {
				r.logf("inherited ChangeP(%d) failed: %v", pendingP, err)
			}
		}()
	}
}

// takeover builds term's coordinator from base and readies it to serve:
// it opens the log (Open validates every frame), fences the epoch past
// everything the old leader published, commits the takeover barrier and
// resumes the drain. Nothing else sees the coordinator before it
// returns; on error it is closed.
func (r *Replica) takeover(term uint64, base proto.ControlState) (*Coordinator, error) {
	cfg := r.cfg.Coordinator
	if r.cfg.OpenWAL != nil {
		wal, err := r.cfg.OpenWAL()
		if err != nil {
			return nil, fmt.Errorf("ingest WAL: %w", err)
		}
		cfg.WAL = wal
	}
	coord, err := NewFromState(cfg, base)
	if err != nil {
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return nil, err
	}
	coord.term = term
	coord.commit = func(kind uint8) error { return r.commitEntry(term, kind, coord.ExportState) }
	coord.SetEpochFloor(base.Epoch + 1)
	// The barrier carries base's PendingP (NewFromState keeps it), so the
	// intent stays durable across takeovers.
	if err := r.propose(term, proto.EntryTakeover, coord.ExportState); err != nil {
		coord.Close()
		return nil, fmt.Errorf("barrier: %w", err)
	}
	// The drain resumes from the replicated watermark: the old leader's
	// drained-but-unreplicated tail (at most one heartbeat of lag) is
	// re-delivered, and node-side dedup absorbs it.
	coord.StartIngest(r.cfg.Ingest)
	if cfg.WAL != nil {
		r.logf("ingest drain resumed from watermark %d", coord.IngestDrained())
	}
	return coord, nil
}

// maybeReplicateIngest commits the ingest drained watermark when it has
// moved past the committed snapshot. Runs on the election loop's
// goroutine (never the drain goroutine — see ReplicaConfig.Ingest), so
// the watermark replicates at most one heartbeat behind delivery; the
// lag re-delivers on failover and node-side dedup absorbs it.
func (r *Replica) maybeReplicateIngest() {
	c, err := r.LeaderCoord()
	if err != nil {
		return
	}
	r.mu.Lock()
	committed := r.committed.State.IngestDrained
	r.mu.Unlock()
	if c.IngestDrained() > committed {
		if err := r.propose(c.term, proto.EntryState, c.ExportState); err != nil {
			r.logf("ingest watermark replication failed: %v", err)
		}
	}
}

// heartbeat runs one replication round: push accepted (or nothing) to
// every peer. A majority of acknowledgments extends the leader lease; a
// full lease without one steps the leader down.
func (r *Replica) heartbeat() {
	r.maybeReplicateIngest()
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return
	}
	term := r.term
	start := r.now()
	r.mu.Unlock()
	acks := r.replicateRound(term)
	r.mu.Lock()
	var coord *Coordinator
	if r.role == RoleLeader && r.term == term {
		if acks+1 >= r.majority() {
			r.leaseUntil = start.Add(r.cfg.Lease)
		} else if !r.now().Before(r.leaseUntil) {
			coord = r.stepDownLocked("lease expired without majority contact")
		}
	}
	r.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
}

// replicateRound pushes [accepted] to each peer whose acknowledged index
// is below accepted.Index and nothing otherwise, always with Commit =
// committed.Index, and returns how many peers now hold accepted.
func (r *Replica) replicateRound(term uint64) int {
	r.mu.Lock()
	if r.role != RoleLeader || r.term != term {
		r.mu.Unlock()
		return 0
	}
	top, commit := r.accepted, r.committed.Index
	r.mu.Unlock()

	return r.pollPeers(func(ctx context.Context, name string, p peer) bool {
		req := proto.ReplicateReq{Term: term, Leader: r.cfg.Self, Commit: commit}
		r.mu.Lock()
		if r.ackIndex[name] < top.Index {
			req.Entries = []proto.LogEntry{top}
		}
		r.mu.Unlock()
		var resp proto.ReplicateResp
		if err := p.Call(ctx, proto.MMemberReplicate, req, &resp); err != nil {
			return false
		}
		r.observeTerm(resp.Term)
		if !resp.OK {
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.term == term && resp.LastIndex > r.ackIndex[name] {
			r.ackIndex[name] = resp.LastIndex
		}
		return resp.LastIndex >= top.Index
	})
}

// propose makes one decision of leadership term `term` the leader's
// accepted entry, at accepted.Index+1, and replicates it, returning nil
// only after a majority holds it — then committed = accepted. A replica
// that no longer leads that term refuses, so a deposed coordinator can
// never commit under its successor. Proposals are serialised, and snap
// is taken once this one's turn comes, so an entry never carries a
// state older than the entry committed before it; a propose that cannot
// reach a majority steps the leader down, closes its coordinator, and
// errors.
func (r *Replica) propose(term uint64, kind uint8, snap func() proto.ControlState) error {
	r.proposeMu.Lock()
	defer r.proposeMu.Unlock()
	st := snap()
	r.mu.Lock()
	if r.role != RoleLeader || r.term != term {
		leader := r.leader
		r.mu.Unlock()
		return &NotLeaderError{Leader: leader}
	}
	idx := r.accepted.Index + 1
	r.accepted = proto.LogEntry{Index: idx, Term: term, Kind: kind, State: st}
	start := r.now()
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
	r.committed = r.accepted
	r.leaseUntil = start.Add(r.cfg.Lease)
	r.mu.Unlock()
	return nil
}

// commitEntry is the commit hook takeover installs on its coordinator.
// An intent's commit is the crash point OnIntentCommitted marks; it
// fires after proposeMu is released, so a hook that blocks cannot stall
// the heartbeat's own proposals.
func (r *Replica) commitEntry(term uint64, kind uint8, snap func() proto.ControlState) error {
	var st proto.ControlState
	if err := r.propose(term, kind, func() proto.ControlState { st = snap(); return st }); err != nil {
		return err
	}
	if kind == proto.EntryIntent && r.cfg.OnIntentCommitted != nil {
		r.cfg.OnIntentCommitted(st.PendingP)
	}
	return nil
}

// HandleReplicate is the follower half of member.replicate. It refuses a
// stale term, renews the leader's lease, and applies the push's entries
// to the register in order:
//
//   - An entry at or below committed.Index is history and is ignored —
//     unless it gives committed's own index another term. That would
//     rewrite a committed decision, which no correct leader can send
//     (the up-to-date rule puts every committed entry on whoever wins),
//     so it is split-brain or corruption and refuses the whole push
//     before anything changes.
//   - Any other entry replaces accepted. Every entry is a full snapshot,
//     so this one rule covers an append, an overwrite of an uncommitted
//     entry and a jump over entries this replica never saw.
//
// Then committed = accepted, but only when Commit >= accepted.Index and
// accepted is of the pushing leader's own term: Raft's rule that a
// leader commits only by counting entries of its own term, so a newer
// leader's watermark can never promote a stale entry a deposed leader
// left here.
func (r *Replica) HandleReplicate(req proto.ReplicateReq) proto.ReplicateResp {
	r.observeTerm(req.Term)
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := proto.ReplicateResp{Term: r.term, LastIndex: r.accepted.Index}
	// A leader hearing another leader at its own term: impossible under
	// majority leases; refuse rather than split-brain.
	if req.Term < r.term || r.role == RoleLeader {
		return resp
	}
	for _, e := range req.Entries {
		if e.Index == r.committed.Index && e.Term != r.committed.Term {
			return resp
		}
	}
	now := r.now()
	r.role, r.leader, r.lastHeard = RoleFollower, req.Leader, now
	// Accepted replication traffic IS the lease renewal — and pins the
	// leader as this term's vote, so once the lease lapses no OTHER
	// candidate can be granted the same term.
	if r.votedTerm < req.Term {
		r.votedTerm, r.votedFor = req.Term, req.Leader
	}
	r.grantTerm, r.grantTo, r.grantUntil = req.Term, req.Leader, now.Add(r.cfg.Lease)

	for _, e := range req.Entries {
		if e.Index > r.committed.Index {
			r.accepted = e
		}
	}
	if req.Commit >= r.accepted.Index && r.accepted.Term == req.Term {
		r.committed = r.accepted
	}
	resp.OK, resp.LastIndex = true, r.accepted.Index
	return resp
}

// HandleLease is the voter half of member.lease: grant the leadership
// lease when the term is current, no unexpired grant stands for someone
// else, and the candidate's accepted entry is at least as new as ours.
func (r *Replica) HandleLease(req proto.LeaseReq) proto.LeaseResp {
	r.observeTerm(req.Term)
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := proto.LeaseResp{Term: r.term, Leader: r.leader, LastIndex: r.accepted.Index}
	now := r.now()
	switch {
	case req.Term < r.term:
		// A stale candidate; resp.Term tells it how far behind it is.
	case r.votedTerm == req.Term && r.votedFor != "" && r.votedFor != req.Candidate:
		// Already voted at this term for someone else. A vote is
		// forever, unlike the lease: re-granting an old term after its
		// lease expired would let two leader generations share a term,
		// and the frontends' (Term, Epoch) fence assumes a term names
		// exactly one leader. (Re-granting the SAME candidate is an
		// idempotent retry and falls through.)
	case r.grantTo != "" && r.grantTo != req.Candidate && now.Before(r.grantUntil):
		// An unexpired lease stands (possibly renewed by replicate
		// traffic from the live leader). Granting now could make two
		// leases overlap, so refuse even though the term is newer.
	case req.LastTerm < r.accepted.Term || (req.LastTerm == r.accepted.Term && req.LastIndex < r.accepted.Index):
		// Raft's up-to-date rule over the candidate's accepted entry,
		// term first, index to break ties. Term matters: a partitioned
		// ex-leader can sit on an uncommitted entry whose index matches
		// ours while ours is a committed decision from a newer leader.
		// And accepted — not committed — matters because the watermark
		// travels one heartbeat behind majority acks: our accepted entry
		// may be one the dead leader already confirmed to its caller.
	default:
		resp.Granted = true
		r.votedTerm, r.votedFor = req.Term, req.Candidate
		r.grantTerm, r.grantTo, r.grantUntil = req.Term, req.Candidate, now.Add(r.cfg.Lease)
	}
	return resp
}

// --- accessors ---

// Self returns this replica's address.
func (r *Replica) Self() string { return r.cfg.Self }

// IsLeader reports whether this replica holds the lease and serves as
// leader: its coordinator has committed its takeover barrier and is
// published.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == RoleLeader && r.coord != nil
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
	return r.committed.State, r.committed.Index > 0
}

// LastIndex returns the index of the replica's accepted entry.
func (r *Replica) LastIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.accepted.Index
}

// LeaderCoord returns the live coordinator when this replica leads,
// else a NotLeaderError carrying the redirect hint. It is the lead
// function RegisterHandlers and the autoscaler take.
func (r *Replica) LeaderCoord() (*Coordinator, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RoleLeader || r.coord == nil {
		return nil, &NotLeaderError{Leader: r.leader}
	}
	return r.coord, nil
}

// P returns the partitioning level: live on the leader, the committed
// snapshot's on followers.
func (r *Replica) P() int {
	if c, err := r.LeaderCoord(); err == nil {
		return c.P()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.committed.State.P; p > 0 {
		return p
	}
	return r.cfg.Coordinator.P
}

// NewAutoscaler binds the elasticity controller to whichever
// coordinator this replica leads with; its ticks do nothing while the
// replica follows.
func (r *Replica) NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	return newAutoscaler(r.LeaderCoord, r.P(), r.cfg.Coordinator.Clock, cfg)
}

// RegisterHandlers serves the peer protocol (member.lease and
// member.replicate) on d; the member.* surface is the package-level
// RegisterHandlers with r.LeaderCoord.
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
}
