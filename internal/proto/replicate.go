// Control-plane replication bodies (member.replicate / member.lease).
// Every view publish, quarantine flip, ChangeP, ring power change,
// decommission and autoscale decision is one log entry, pushed to the
// follower replicas on the next heartbeat. A body is binary exactly when
// it carries records, trapdoors or id sets (codec.go); these carry none,
// so they travel as JSON like every other control body.
//
// Every LogEntry carries a complete ControlState snapshot. That makes
// follower apply a replacement, not a merge: catch-up after a partition
// is one push of the leader's newest entry, and a replica can always be
// rebuilt from its single latest committed entry.
package proto

// LogEntry kinds. Every kind carries a full snapshot; the kind records
// why the entry exists, which matters for takeover: an intent entry
// whose commit never followed tells the new leader to re-drive the
// reconfiguration recorded in State.PendingP.
const (
	// EntryState is an ordinary committed state change (view publish,
	// quarantine flip, join/leave, completed ChangeP, ...).
	EntryState = uint8(0)
	// EntryIntent records a reconfiguration that is about to start
	// (State.PendingP holds the target partitioning level). It is
	// majority-committed BEFORE any data moves, so a leader crash
	// mid-ChangeP leaves the intent durable and the successor finishes
	// the job.
	EntryIntent = uint8(1)
	// EntryTakeover is the no-op barrier a freshly elected leader
	// commits to establish its term (and to republish the state it
	// inherited under that term).
	EntryTakeover = uint8(2)
)

// NodeState is one node's complete control-plane record — everything a
// replica needs to reconstruct the coordinator's view of the node
// (placement, capacity, rack, quarantine verdict).
type NodeState struct {
	ID    int     `json:"id"`
	Ring  int     `json:"ring"`
	Start float64 `json:"start"`
	Addr  string  `json:"addr"`
	Speed float64 `json:"speed,omitempty"`
	Rack  string  `json:"rack,omitempty"`
	// Quarantined mirrors the health aggregator's verdict;
	// QuarantinedAtUnixNanos preserves the quarantine clock across
	// failover so the autoscaler's decommission deadline does not reset
	// every time leadership moves.
	Quarantined            bool  `json:"quarantined,omitempty"`
	QuarantinedAtUnixNanos int64 `json:"quarantined_at_ns,omitempty"`
}

// ControlState is the coordinator's full replicable control state: the
// ring topology, partitioning level, powered-down rings, and per-node
// records. Soft state (failure-evidence scores, speed EWMAs in flight,
// transfer counters) deliberately stays out — it regenerates from the
// frontends' next health reports.
type ControlState struct {
	Epoch int `json:"epoch"`
	P     int `json:"p"`
	// PendingP, when non-zero, is the target of a reconfiguration whose
	// intent has been committed but whose completion has not (see
	// EntryIntent).
	PendingP int         `json:"pending_p,omitempty"`
	NextID   int         `json:"next_id"`
	Rings    int         `json:"rings"`
	Disabled []int       `json:"disabled,omitempty"` // powered-down ring indices
	Nodes    []NodeState `json:"nodes,omitempty"`

	// IngestDrained is the durable-ingest delivery watermark: every WAL
	// sequence <= it has reached all of its owning nodes. Replicating it
	// lets a newly elected leader resume the drain without re-delivering
	// the whole log (the un-replicated tail is re-delivered and absorbed
	// by node-side dedup).
	IngestDrained uint64 `json:"ingest_drained,omitempty"`
}

// LogEntry is one replicated decision: its position (Index), the
// leadership term that made it, and the full state it leaves behind.
type LogEntry struct {
	Index uint64       `json:"index"`
	Term  uint64       `json:"term"`
	Kind  uint8        `json:"kind,omitempty"`
	State ControlState `json:"state"`
}

// ReplicateReq is the leader's push / lease-renewal heartbeat: the
// leader's newest entry when the follower has not acknowledged it
// (otherwise none), plus the leader's commit watermark. Entries is a
// list on the wire; a follower applies any number of them in order. A
// follower that accepts it treats the message as a lease renewal for
// Leader at Term.
type ReplicateReq struct {
	Term    uint64     `json:"term"`
	Leader  string     `json:"leader"`
	Commit  uint64     `json:"commit"`
	Entries []LogEntry `json:"entries,omitempty"`
}

// ReplicateResp acknowledges a push. OK is false when the sender's term
// is stale — the fencing signal that makes a deposed leader step down.
// LastIndex is the index of the follower's newest entry either way,
// which is how the leader learns whether to send its own.
type ReplicateResp struct {
	Term      uint64 `json:"term"`
	OK        bool   `json:"ok"`
	LastIndex uint64 `json:"last_index"`
}

// LeaseReq is a candidate's election request: grant me the leadership
// lease for Term. (LastTerm, LastIndex) identify the candidate's newest
// entry; voters apply Raft's up-to-date rule — refuse any candidate
// whose newest entry is behind the voter's own, comparing terms first
// and indexes only to break term ties — so an elected leader always
// holds every committed decision. Index alone is not enough: a deposed
// leader can sit on an uncommitted entry whose INDEX matches while a
// voter's committed entry at the same index carries a newer term.
type LeaseReq struct {
	Term      uint64 `json:"term"`
	Candidate string `json:"candidate"`
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term"`
}

// LeaseResp answers an election request.
type LeaseResp struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
	// Leader names the voter's last known leader ("" when none) — a
	// redirect hint for clients.
	Leader string `json:"leader,omitempty"`

	// LastIndex is the index of the voter's newest entry, so a refused
	// candidate learns how far behind it is without another round trip.
	LastIndex uint64 `json:"last_index,omitempty"`
}
