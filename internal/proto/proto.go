// Package proto defines the RPC payloads exchanged between the ROAR
// cluster roles (frontend, data node, membership server). Keeping them
// in one place documents the protocol and avoids import cycles.
package proto

import (
	"roar/internal/pps"
)

// Method names.
const (
	// Node methods.
	MNodeQuery  = "node.query"
	MNodePut    = "node.put"
	MNodeDelete = "node.delete"
	MNodeRetain = "node.retain"
	MNodeStats  = "node.stats"
	MNodePing   = "node.ping"

	// Membership methods (for the cmd/roar-member wire wrapper).
	MMemberJoin   = "member.join"
	MMemberLeave  = "member.leave"
	MMemberView   = "member.view"
	MMemberSetP   = "member.setp"
	MMemberLoad   = "member.load"
	MMemberHealth = "member.health"

	// Coordinator replication methods (control-plane HA): the leader
	// pushes its decision log to follower replicas with member.replicate
	// and acquires/renews its election lease with member.lease.
	MMemberReplicate = "member.replicate"
	MMemberLease     = "member.lease"

	// Durable ingest: producers append records to the coordinator's
	// write-ahead log; delivery to the owning nodes is asynchronous.
	MMemberIngest = "member.ingest"

	// Frontend client-facing methods (cmd/roar-frontend).
	MFEQuery = "fe.query"
	MFEPut   = "fe.put"
)

// LoadReq asks the membership server to load a corpus file (written by
// store.SaveFile) as the backend object set.
type LoadReq struct {
	Path string `json:"path"`
}

// LoadResp reports the loaded record count.
type LoadResp struct {
	Records int `json:"records"`
}

// PlainQuery is the plaintext index query shape (the non-encrypted
// workload served by internal/index): match documents containing the
// terms under the given combine mode, returning at most Limit of the
// numerically-smallest ids per arc. Mode values mirror index.Mode:
// 0 = AND, 1 = OR, 2 = at-least-MinMatch threshold, where a MinMatch
// below 1 means 1 and one above len(Terms) matches nothing.
type PlainQuery struct {
	Terms    []string `json:"terms"`
	Mode     uint8    `json:"mode,omitempty"`
	MinMatch int      `json:"min_match,omitempty"`
	Limit    int      `json:"limit,omitempty"`
}

// Cache-control values for FEQueryReq.CacheControl, mirrored by
// frontend.QuerySpec. Zero (default) means "cache normally".
const (
	// CacheDefault: serve from the result cache when fresh, store on miss.
	CacheDefault uint8 = 0
	// CacheBypass: skip the cache entirely — no read, no store.
	CacheBypass uint8 = 1
	// CacheRefresh: skip the read but store the fresh result, forcing
	// revalidation of a suspect entry.
	CacheRefresh uint8 = 2
)

// FEQueryReq is a client query to a frontend. Priority selects the
// admission class: 0 is normal, negative is sheddable (rejected first
// when the frontend is overloaded), positive is never shed. Exactly one
// of Q / Plain is the payload: when Plain is non-nil the frontend
// routes the query to the nodes' plaintext index matcher instead of the
// PPS encrypted scan.
type FEQueryReq struct {
	Q        pps.Query   `json:"q"`
	Priority int         `json:"priority,omitempty"`
	Plain    *PlainQuery `json:"plain,omitempty"`

	// Tenant names the accounting principal for per-tenant admission
	// quotas and shed counters; empty means the anonymous default
	// tenant. CacheControl is one of the Cache* values above.
	Tenant       string `json:"tenant,omitempty"`
	CacheControl uint8  `json:"cache_control,omitempty"`
}

// FEQueryResp is the frontend's answer (a JSON body).
type FEQueryResp struct {
	IDs        []uint64 `json:"ids,omitempty"`
	DelayNanos int64    `json:"delay_ns"`
	QueueNanos int64    `json:"queue_ns"` // admission-control wait
	SubQueries int      `json:"sub_queries"`
	Failures   int      `json:"failures"` // failed sub-queries recovered
	Hedges     int      `json:"hedges"`   // speculative re-dispatches launched
	// Source attributes the answer: "cache", "fanout", or "hedged".
	Source string `json:"source,omitempty"`
}

// Request bits of QueryReq.Flags. The plaintext index plane ignores both.
const (
	// QueryMemo lets the node answer the encrypted scan from its match
	// memo, re-scanning only the ring buckets written since it last
	// scanned them for this query. A frontend sets it for a query its own
	// result cache may answer.
	QueryMemo uint8 = 1 << 0
	// QueryMemoRefill has the node drop what its memo holds for the
	// query, scan the arc and remember the fresh answer (CacheRefresh).
	QueryMemoRefill uint8 = 1 << 1

	queryFlagsKnown = QueryMemo | QueryMemoRefill
)

// QueryReq asks a node to match the encrypted query against its stored
// objects with ids in the half-open arc (Lo, Hi] — §4.2's partitioned
// sub-query carrying the duplicate-avoidance bounds.
type QueryReq struct {
	QID uint64  `json:"qid"` // query id, for logging/tracing
	Lo  float64 `json:"lo"`
	Hi  float64 `json:"hi"`
	// Flags is a set of the Query* request bits below; zero asks for a
	// plain scan of the arc.
	Flags uint8     `json:"flags,omitempty"`
	Q     pps.Query `json:"q"`

	// Plain, when non-nil, selects the node's plaintext index matcher
	// instead of the PPS encrypted scan; Q is ignored.
	Plain *PlainQuery `json:"plain,omitempty"`
}

// QueryResp carries the matching object ids.
type QueryResp struct {
	IDs     []uint64 `json:"ids,omitempty"`
	Scanned int      `json:"scanned"`
	// MatchNanos is pure matching time on the node, for the delay
	// breakdown of Fig 7.11.
	MatchNanos int64 `json:"match_ns"`
	// QueueDepth is the number of OTHER sub-queries already executing on
	// the node when this sub-query arrived (arrival sampling: under
	// synchronized closed-loop load, completion-time sampling always
	// lands in the trough between waves). Frontends fold it into their
	// finish-time estimates so a node backed up by competing frontends
	// is scheduled around before its own EWMA degrades.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// PingReq is a liveness/recovery probe (MNodePing). It carries no
// fields; having a named type lets the probe ride the binary hot-path
// codec instead of a JSON null.
type PingReq struct{}

// PingResp answers a liveness/recovery probe (MNodePing) with the
// node's current load, so a recovering node rejoins the schedule with a
// realistic queue estimate instead of a blank slate.
type PingResp struct {
	QueueDepth int `json:"queue_depth"`
}

// PutReq pushes replica records to a node (the backend update server
// strategy of §4.1).
type PutReq struct {
	Records []pps.Encoded `json:"records"`

	// Epoch is the view epoch the sender placed these records under.
	// Zero means unfenced (an epoch-unaware sender, such as a bulk
	// loader) and is always accepted. A non-zero epoch older than the
	// newest one the node has observed is rejected with
	// wire.CodeStaleEpoch — the sender's placement may be wrong, so it
	// must re-pull the view and re-route rather than write records the
	// node no longer owns.
	Epoch int `json:"epoch,omitempty"`
}

// PutResp acknowledges stored records.
type PutResp struct {
	Stored int `json:"stored"`
	Total  int `json:"total"` // node's record count after the put
}

// DeleteReq removes records by id.
type DeleteReq struct {
	IDs []uint64 `json:"ids"`
}

// IngestReq appends records to the coordinator's durable ingest WAL
// (MMemberIngest). Acceptance means durability, not delivery: the
// records are fsynced before the reply, then drained asynchronously to
// the owning nodes with at-least-once semantics (see docs/INGEST.md).
type IngestReq struct {
	Records []pps.Encoded `json:"records"`
}

// IngestResp acknowledges a durable append. Seq is the WAL sequence of
// the last accepted record; Drained is the delivery watermark at reply
// time (every sequence <= Drained has reached its owners), so a caller
// can poll for Drained >= Seq when it needs delivery, not just
// durability.
type IngestResp struct {
	Seq     uint64 `json:"seq"`
	Drained uint64 `json:"drained"`
}

// FEPutReq is a client write through a frontend (MFEPut): the frontend
// forwards it to the coordinator's ingest WAL.
type FEPutReq struct {
	Records []pps.Encoded `json:"records"`
}

// FEPutResp mirrors IngestResp for frontend clients.
type FEPutResp struct {
	Seq     uint64 `json:"seq"`
	Drained uint64 `json:"drained"`
}

// RetainReq tells a node its (possibly new) range and partitioning
// level; the node drops every record outside the implied stored set
// (§4.5: increasing p means dropping replicas immediately).
type RetainReq struct {
	Start  float64 `json:"start"`
	Length float64 `json:"length"`
	P      int     `json:"p"`
	// Epoch is the view epoch this placement comes from; the node
	// advances its observed epoch so older fenced puts start bouncing.
	Epoch int `json:"epoch,omitempty"`
}

// RetainResp reports the deletions.
type RetainResp struct {
	Dropped   int `json:"dropped"`
	Remaining int `json:"remaining"`
}

// StatsResp is a node's counters (Fig 7.3 CPU load, Table 7.3 health).
type StatsResp struct {
	Objects    int     `json:"objects"`
	Queries    int64   `json:"queries"`
	Scanned    int64   `json:"scanned"`
	BusyNanos  int64   `json:"busy_ns"`
	UptimeSecs float64 `json:"uptime_s"`
	// PeakConcurrency is the high-water mark of simultaneously
	// executing sub-queries, evidence that frontend dispatch actually
	// overlaps work on the node.
	PeakConcurrency int64 `json:"peak_concurrency,omitempty"`
	// Canceled counts sub-queries aborted mid-match because the caller
	// cancelled (hedge losses, client disconnects).
	Canceled int64 `json:"canceled,omitempty"`

	// The match memo (QueryReq.Flags): sub-queries that went through it,
	// the ring buckets of their arcs answered from memory and re-scanned,
	// entries evicted by its byte budget, and what it holds now. All zero
	// on a node that no frontend has sent a QueryMemo request.
	MemoLookups          int64 `json:"memo_lookups,omitempty"`
	MemoBucketsReused    int64 `json:"memo_buckets_reused,omitempty"`
	MemoBucketsRescanned int64 `json:"memo_buckets_rescanned,omitempty"`
	MemoEvictions        int64 `json:"memo_evictions,omitempty"`
	MemoEntries          int   `json:"memo_entries,omitempty"`
	MemoBytes            int64 `json:"memo_bytes,omitempty"`
}

// NodeInfo describes one node's placement for frontend consumption.
type NodeInfo struct {
	ID    int     `json:"id"`
	Ring  int     `json:"ring"`
	Start float64 `json:"start"`
	Addr  string  `json:"addr"`
	// Quarantined demotes the node from scheduling without dropping it
	// from storage: it keeps its ring range and data (so recovery is a
	// view flip, not a data transfer), but frontends must not dispatch
	// sub-queries to it. Set by the membership health aggregator when a
	// node's failure-evidence score crosses the quarantine threshold.
	Quarantined bool `json:"quarantined,omitempty"`
}

// View is the membership server's cluster snapshot: everything a
// frontend needs to schedule queries.
type View struct {
	Epoch int        `json:"epoch"` // increases on every change
	P     int        `json:"p"`     // safe partitioning level (§4.5)
	Nodes []NodeInfo `json:"nodes"`

	// Term is the publishing leader's election term (control-plane HA).
	// Views are fenced by (Term, Epoch): a frontend rejects any view
	// strictly older than its installed one, so a deposed coordinator
	// can never roll the fleet back. Zero (a standalone coordinator)
	// sorts below every elected term.
	Term uint64 `json:"term,omitempty"`

	// Ingested / Drained are the coordinator's ingest WAL watermarks at
	// view-build time (see docs/INGEST.md): Ingested is the last durable
	// append sequence, Drained the last sequence delivered to every
	// owning node. Frontends use them to invalidate their result caches
	// when asynchronous writes land without an epoch bump — a drain
	// advances data without changing placement. Zero (a WAL-less
	// coordinator) means "no ingest signal", never "rewind".
	Ingested uint64 `json:"ingested,omitempty"`
	Drained  uint64 `json:"drained,omitempty"`
}

// JoinReq registers a node with the membership server.
type JoinReq struct {
	Addr      string  `json:"addr"`
	SpeedHint float64 `json:"speed_hint,omitempty"`
}

// JoinResp returns the assigned placement.
type JoinResp struct {
	ID    int     `json:"id"`
	Ring  int     `json:"ring"`
	Start float64 `json:"start"`
}

// LeaveReq removes a node gracefully.
type LeaveReq struct {
	ID int `json:"id"`
}

// SetPReq requests an on-the-fly partitioning change (§4.5).
type SetPReq struct {
	P int `json:"p"`
}

// NodeHealth is one frontend's observations of one node since its last
// report. Counters are deltas, so the membership aggregator can sum
// them across frontends without double counting.
type NodeHealth struct {
	ID int `json:"id"`
	// Suspicions counts healthy/recovering -> suspected transitions
	// (sub-query timeouts or transport errors).
	Suspicions int `json:"suspicions,omitempty"`
	// ProbeOKs / ProbeFails count background recovery-probe outcomes.
	ProbeOKs   int `json:"probe_oks,omitempty"`
	ProbeFails int `json:"probe_fails,omitempty"`
	// Contacts counts successful sub-query completions.
	Contacts int `json:"contacts,omitempty"`
	// QueueDepth is the node's last self-reported queue depth.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Speed is the frontend's EWMA speed estimate (fraction/s; 0 =
	// no observation yet).
	Speed float64 `json:"speed,omitempty"`

	// Latency digest: p50/p99 of this frontend's recent sub-query
	// latencies against the node, from the same per-node histories the
	// adaptive hedge delay uses. Zero until the tracker has warmed up.
	LatP50Nanos int64 `json:"lat_p50_ns,omitempty"`
	LatP99Nanos int64 `json:"lat_p99_ns,omitempty"`
}

// HealthReport is the periodic per-frontend health push (MMemberHealth):
// everything the membership aggregator needs to fold this frontend's
// view of the cluster into per-node failure-evidence scores.
type HealthReport struct {
	// FE identifies the reporting frontend (its listen address, or any
	// stable name) so the aggregator can track report continuity.
	FE string `json:"fe,omitempty"`
	// Seq increases by one per report from this frontend.
	Seq uint64 `json:"seq"`
	// Shed counts PriorityLow queries this frontend rejected at
	// admission due to overload since its last report.
	Shed int `json:"shed,omitempty"`
	// Nodes carries the per-node observation deltas.
	Nodes []NodeHealth `json:"nodes,omitempty"`

	// --- autoscale telemetry ---
	//
	// The fields below (plus NodeHealth's latency digest) feed the
	// membership elasticity controller.

	// ShedNormal counts PriorityNormal queries rejected because the
	// admission queue wait exceeded its bound (ErrOverloaded) since the
	// last report — the second shed priority class, distinct from the
	// sheddable-low Shed counter.
	ShedNormal int `json:"shed_normal,omitempty"`
	// HedgesDenied counts hedges suppressed by budget exhaustion, the
	// per-query cap, or the overload brake since the last report —
	// sustained denial means the tail is being left unprotected for
	// lack of capacity.
	HedgesDenied int `json:"hedges_denied,omitempty"`
	// QueueP50Nanos / QueueP99Nanos digest the admission-queue wait of
	// recently admitted queries (gauges over a rolling window, not
	// deltas).
	QueueP50Nanos int64 `json:"queue_p50_ns,omitempty"`
	QueueP99Nanos int64 `json:"queue_p99_ns,omitempty"`

	// Tenants carries per-tenant admission/shed/cache deltas since the
	// last report, feeding the autoscale controller's fairness view.
	Tenants []TenantLoad `json:"tenants,omitempty"`
}

// TenantLoad is one frontend's per-tenant admission counters since its
// last report (deltas, like NodeHealth).
type TenantLoad struct {
	Tenant string `json:"tenant"`
	// Admitted counts queries that passed admission (quota + semaphore).
	Admitted int `json:"admitted,omitempty"`
	// Shed counts queries rejected by quota exhaustion or overload.
	Shed int `json:"shed,omitempty"`
	// CacheHits / CacheMisses split the tenant's cache traffic; hits
	// bypass admission entirely, so Admitted+Shed+CacheHits is the
	// tenant's offered load.
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`
}

// HealthResp acknowledges a health report with the aggregator's current
// verdict, closing the loop: a frontend seeing an Epoch ahead of its
// installed view should re-pull the view immediately instead of waiting
// for its poll timer.
type HealthResp struct {
	Epoch int `json:"epoch"`
	// Quarantined lists the node ids currently demoted from scheduling.
	Quarantined []int `json:"quarantined,omitempty"`
}
