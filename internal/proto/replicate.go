// Control-plane replication bodies (member.replicate / member.lease)
// and their binary codecs. The coordinator's decision log is pushed to
// follower replicas continuously — every view publish, quarantine flip,
// ChangeP, ring power change, decommission, and autoscale decision is
// one log entry — so these bodies ride the binary codec like the
// data-plane hot bodies: varints, raw float bits, and length-prefixed
// strings instead of JSON keys and decimal counters.
//
// Every LogEntry carries a complete ControlState snapshot. That makes
// follower apply a replacement, not a merge: catch-up after a partition
// is "send the tail" (or just the newest entry when the leader's window
// has moved on), and a replica can always be rebuilt from its single
// latest committed entry.
package proto

import (
	"encoding/binary"
	"math"
)

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

// LogEntry is one slot of the replicated decision log.
type LogEntry struct {
	Index uint64       `json:"index"`
	Term  uint64       `json:"term"`
	Kind  uint8        `json:"kind,omitempty"`
	State ControlState `json:"state"`
}

// ReplicateReq is the leader's log push / lease-renewal heartbeat: new
// entries (possibly none) plus the leader's commit watermark. A
// follower that accepts it treats the message as a lease renewal for
// Leader at Term.
type ReplicateReq struct {
	Term    uint64     `json:"term"`
	Leader  string     `json:"leader"`
	Commit  uint64     `json:"commit"`
	Entries []LogEntry `json:"entries,omitempty"`
}

// ReplicateResp acknowledges a log push. OK is false when the sender's
// term is stale — the fencing signal that makes a deposed leader step
// down. LastIndex is the follower's last log index either way, which is
// how the leader discovers a catch-up gap.
type ReplicateResp struct {
	Term      uint64 `json:"term"`
	OK        bool   `json:"ok"`
	LastIndex uint64 `json:"last_index"`
}

// LeaseReq is a candidate's election request: grant me the leadership
// lease for Term. (LastTerm, LastIndex) identify the candidate's last
// log entry; voters apply Raft's up-to-date rule — refuse any candidate
// whose last entry is behind the voter's own, comparing terms first and
// indexes only to break term ties — so an elected leader always holds
// every committed decision. Index alone is not enough: a deposed leader
// can sit on a long uncommitted tail whose INDEX passes while a voter's
// committed entry at the same index carries a newer term.
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
	// Leader, when non-empty on a refusal, names the holder of the
	// voter's current unexpired grant — a redirect hint for clients.
	Leader string `json:"leader,omitempty"`

	// LastIndex is the voter's last log index, so a refused candidate
	// learns how far behind it is without another round trip.
	LastIndex uint64 `json:"last_index,omitempty"`
}

// --- codecs ---

// A NodeState needs at least 22 wire bytes (two 1-byte varints, two
// 8-byte floats, two 1-byte length prefixes, the quarantine byte and a
// 1-byte varint timestamp); a ControlState at least 7 (five 1-byte
// varints plus two empty counts); a LogEntry at least 10 (index, term,
// kind plus its state). These bound the decoders' count-versus-bytes
// sanity checks.
const (
	nodeStateMinBytes = 22
	logEntryMinBytes  = 10
)

// boolByte encodes a bool as one wire byte. (Expression form, so the
// codecsync analyzer attributes the field read to its wire position;
// an if-statement condition would be invisible to it.)
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendNodeState(b []byte, n NodeState) []byte {
	b = appendZigzag(b, int64(n.ID))
	b = appendZigzag(b, int64(n.Ring))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(n.Start))
	b = binary.AppendUvarint(b, uint64(len(n.Addr)))
	b = append(b, n.Addr...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(n.Speed))
	b = binary.AppendUvarint(b, uint64(len(n.Rack)))
	b = append(b, n.Rack...)
	b = append(b, boolByte(n.Quarantined))
	b = appendZigzag(b, n.QuarantinedAtUnixNanos)
	return b
}

func readNodeState(r *reader) NodeState {
	var n NodeState
	n.ID = int(r.zigzag("NodeState.ID"))
	n.Ring = int(r.zigzag("NodeState.Ring"))
	n.Start = math.Float64frombits(r.u64("NodeState.Start"))
	n.Addr = string(r.bytes("NodeState.Addr"))
	n.Speed = math.Float64frombits(r.u64("NodeState.Speed"))
	n.Rack = string(r.bytes("NodeState.Rack"))
	n.Quarantined = r.byte("NodeState.Quarantined") != 0
	n.QuarantinedAtUnixNanos = r.zigzag("NodeState.QuarantinedAtUnixNanos")
	return n
}

func appendControlState(b []byte, s ControlState) []byte {
	b = appendZigzag(b, int64(s.Epoch))
	b = appendZigzag(b, int64(s.P))
	b = appendZigzag(b, int64(s.PendingP))
	b = appendZigzag(b, int64(s.NextID))
	b = appendZigzag(b, int64(s.Rings))
	b = binary.AppendUvarint(b, uint64(len(s.Disabled)))
	for _, k := range s.Disabled {
		b = appendZigzag(b, int64(k))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		b = appendNodeState(b, n)
	}
	b = binary.AppendUvarint(b, s.IngestDrained)
	return b
}

func readControlState(r *reader) ControlState {
	var s ControlState
	s.Epoch = int(r.zigzag("ControlState.Epoch"))
	s.P = int(r.zigzag("ControlState.P"))
	s.PendingP = int(r.zigzag("ControlState.PendingP"))
	s.NextID = int(r.zigzag("ControlState.NextID"))
	s.Rings = int(r.zigzag("ControlState.Rings"))
	nd := r.count("ControlState.Disabled", 1)
	for i := 0; i < nd && r.err == nil; i++ {
		s.Disabled = append(s.Disabled, int(r.zigzag("ControlState.Disabled ring")))
	}
	nn := r.count("ControlState.Nodes", nodeStateMinBytes)
	if nn > 0 && r.err == nil {
		s.Nodes = make([]NodeState, 0, capHint(nn))
		for i := 0; i < nn && r.err == nil; i++ {
			s.Nodes = append(s.Nodes, readNodeState(r))
		}
	}
	s.IngestDrained = r.uvarint("ControlState.IngestDrained")
	return s
}

func appendLogEntry(b []byte, e LogEntry) []byte {
	b = binary.AppendUvarint(b, e.Index)
	b = binary.AppendUvarint(b, e.Term)
	b = append(b, e.Kind)
	b = appendControlState(b, e.State)
	return b
}

func readLogEntry(r *reader) LogEntry {
	var e LogEntry
	e.Index = r.uvarint("LogEntry.Index")
	e.Term = r.uvarint("LogEntry.Term")
	e.Kind = r.byte("LogEntry.Kind")
	e.State = readControlState(r)
	return e
}

// AppendWire implements wire.WireAppender.
func (q ReplicateReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.Term)
	b = binary.AppendUvarint(b, uint64(len(q.Leader)))
	b = append(b, q.Leader...)
	b = binary.AppendUvarint(b, q.Commit)
	b = binary.AppendUvarint(b, uint64(len(q.Entries)))
	for _, e := range q.Entries {
		b = appendLogEntry(b, e)
	}
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *ReplicateReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Term = r.uvarint("ReplicateReq.Term")
	q.Leader = string(r.bytes("ReplicateReq.Leader"))
	q.Commit = r.uvarint("ReplicateReq.Commit")
	n := r.count("ReplicateReq.Entries", logEntryMinBytes)
	q.Entries = nil
	if n > 0 && r.err == nil {
		q.Entries = make([]LogEntry, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			e := readLogEntry(r)
			q.Entries = append(q.Entries, e)
		}
	}
	return r.finish("ReplicateReq")
}

// AppendWire implements wire.WireAppender.
func (q ReplicateResp) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.Term)
	b = append(b, boolByte(q.OK))
	b = binary.AppendUvarint(b, q.LastIndex)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *ReplicateResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Term = r.uvarint("ReplicateResp.Term")
	q.OK = r.byte("ReplicateResp.OK") != 0
	q.LastIndex = r.uvarint("ReplicateResp.LastIndex")
	return r.finish("ReplicateResp")
}

// AppendWire implements wire.WireAppender.
func (q LeaseReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.Term)
	b = binary.AppendUvarint(b, uint64(len(q.Candidate)))
	b = append(b, q.Candidate...)
	b = binary.AppendUvarint(b, q.LastIndex)
	b = binary.AppendUvarint(b, q.LastTerm)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *LeaseReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Term = r.uvarint("LeaseReq.Term")
	q.Candidate = string(r.bytes("LeaseReq.Candidate"))
	q.LastIndex = r.uvarint("LeaseReq.LastIndex")
	q.LastTerm = r.uvarint("LeaseReq.LastTerm")
	return r.finish("LeaseReq")
}

// AppendWire implements wire.WireAppender.
func (q LeaseResp) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.Term)
	b = append(b, boolByte(q.Granted))
	b = binary.AppendUvarint(b, uint64(len(q.Leader)))
	b = append(b, q.Leader...)
	b = binary.AppendUvarint(b, q.LastIndex)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *LeaseResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Term = r.uvarint("LeaseResp.Term")
	q.Granted = r.byte("LeaseResp.Granted") != 0
	q.Leader = string(r.bytes("LeaseResp.Leader"))
	q.LastIndex = r.uvarint("LeaseResp.LastIndex")
	return r.finish("LeaseResp")
}
