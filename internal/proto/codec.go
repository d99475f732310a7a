// Binary hot-path body codecs. The bodies encoded here carry nearly all
// of the cluster's steady-state bytes: sub-query fan-out
// (QueryReq/QueryResp, sent p times per query), replica pushes (PutReq,
// once per stored record), and the liveness probes that gate failure
// recovery (PingReq/PingResp). JSON spends 4/3× on base64 for every
// trapdoor, nonce and filter and ~20 decimal characters per object id;
// these encodings ship raw bytes, varints, and delta-compressed sorted
// id sets instead. Everything else (membership, stats, retain) stays
// JSON inside the binary envelope (see internal/wire/codec.go).
//
// Every encoding is one flat field list: scalars are always written, an
// optional struct sits behind a presence byte. A type has exactly one
// wire form; changing one bumps wire.Version.
//
// Encoders use value receivers (bodies are passed to wire.Call by
// value); decoders use pointer receivers and copy every byte slice they
// retain, because the input aliases a pooled read buffer.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"

	"roar/internal/pps"
)

// appendZigzag appends a signed integer in zigzag-uvarint form.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

// reader is a bounds-checked cursor over one body.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("proto: truncated or corrupt %s", what)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) zigzag(what string) int64 {
	u := r.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(what)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// bytes reads a uvarint-length-prefixed byte string and COPIES it (the
// underlying buffer is pooled).
func (r *reader) bytes(what string) []byte {
	l := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)-r.off) < l {
		r.fail(what)
		return nil
	}
	if l == 0 {
		return nil
	}
	out := make([]byte, l)
	copy(out, r.data[r.off:])
	r.off += int(l)
	return out
}

// TrailingBytesError is the strict decoders' rejection of input that
// continues past the last field.
type TrailingBytesError struct {
	What string // body name, e.g. "HealthReport"
	N    int    // unread byte count
}

func (e *TrailingBytesError) Error() string {
	return fmt.Sprintf("proto: %d trailing bytes after %s", e.N, e.What)
}

// WireErrorCode implements wire.ErrorCoder structurally (proto does not
// import wire); the literal must match wire.CodeTrailingBytes.
func (e *TrailingBytesError) WireErrorCode() string { return "trailing-bytes" }

// UnknownFlagsError is the decoders' rejection of a flags byte with a bit
// this version does not define.
type UnknownFlagsError struct {
	What string // field name, e.g. "QueryReq.Flags"
	Bits uint8  // the undefined bits that were set
}

func (e *UnknownFlagsError) Error() string {
	return fmt.Sprintf("proto: unknown bits %#02x in %s", e.Bits, e.What)
}

// remaining reports unread bytes; a strict decoder rejects trailers.
func (r *reader) finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return &TrailingBytesError{What: what, N: len(r.data) - r.off}
	}
	return nil
}

// count guards a declared element count against the bytes actually
// present (each element needs at least minBytes on the wire). Decoders
// additionally grow their slices incrementally from a capped capacity
// hint, because in-memory element sizes dwarf wire minimums — a corrupt
// count must not provoke a huge up-front allocation.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.data)-r.off)/minBytes+1) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// capHint bounds the initial capacity of a decoded slice; growth past
// it is paid only as real elements parse successfully.
func capHint(n int) int {
	const maxHint = 1024
	if n > maxHint {
		return maxHint
	}
	return n
}

// --- id set encoding ---

// Sorted ascending id sets are delta-compressed (flag 1): first value
// absolute, then gaps. Unsorted sets fall back to absolute uvarints
// (flag 0) — correctness never depends on sortedness.
const (
	idsAbsolute = byte(0)
	idsDelta    = byte(1)
)

func appendIDs(b []byte, ids []uint64) []byte {
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		b = append(b, idsDelta)
		b = binary.AppendUvarint(b, uint64(len(ids)))
		prev := uint64(0)
		for i, id := range ids {
			if i == 0 {
				b = binary.AppendUvarint(b, id)
			} else {
				b = binary.AppendUvarint(b, id-prev)
			}
			prev = id
		}
		return b
	}
	b = append(b, idsAbsolute)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

func (r *reader) ids(what string) []uint64 {
	flag := r.byte(what)
	if r.err == nil && flag != idsAbsolute && flag != idsDelta {
		r.fail(what + " encoding flag")
		return nil
	}
	n := r.count(what, 1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, 0, capHint(n))
	prev := uint64(0)
	for i := 0; i < n && r.err == nil; i++ {
		v := r.uvarint(what)
		if flag == idsDelta && i > 0 {
			v += prev
		}
		out = append(out, v)
		prev = v
	}
	if r.err != nil {
		return nil
	}
	return out
}

// --- PlainQuery (optional sub-struct of both query bodies) ---

// appendPlain appends an optional plaintext query: a presence byte,
// then the fields when present.
func appendPlain(b []byte, p *PlainQuery) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = append(b, p.Mode)
	b = appendZigzag(b, int64(p.MinMatch))
	b = appendZigzag(b, int64(p.Limit))
	b = binary.AppendUvarint(b, uint64(len(p.Terms)))
	for _, t := range p.Terms {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	return b
}

func (r *reader) plain() *PlainQuery {
	if flag := r.byte("PlainQuery presence"); r.err != nil || flag == 0 {
		return nil
	}
	p := &PlainQuery{}
	p.Mode = r.byte("PlainQuery.Mode")
	p.MinMatch = int(r.zigzag("PlainQuery.MinMatch"))
	p.Limit = int(r.zigzag("PlainQuery.Limit"))
	nTerms := r.count("PlainQuery.Terms", 1)
	for i := 0; i < nTerms && r.err == nil; i++ {
		p.Terms = append(p.Terms, string(r.bytes("PlainQuery term")))
	}
	if r.err != nil {
		return nil
	}
	return p
}

// --- QueryReq ---

// AppendWire implements wire.WireAppender.
func (q QueryReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.QID)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(q.Lo))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(q.Hi))
	b = append(b, q.Flags)
	b = append(b, byte(q.Q.Op))
	b = binary.AppendUvarint(b, uint64(len(q.Q.Preds)))
	for _, p := range q.Q.Preds {
		b = binary.AppendUvarint(b, uint64(len(p.Trapdoor)))
		for _, x := range p.Trapdoor {
			b = binary.AppendUvarint(b, uint64(len(x)))
			b = append(b, x...)
		}
	}
	return appendPlain(b, q.Plain)
}

// DecodeWire implements wire.WireDecoder.
func (q *QueryReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.QID = r.uvarint("QueryReq.QID")
	q.Lo = math.Float64frombits(r.u64("QueryReq.Lo"))
	q.Hi = math.Float64frombits(r.u64("QueryReq.Hi"))
	q.Flags = r.byte("QueryReq.Flags")
	if unknown := q.Flags &^ queryFlagsKnown; unknown != 0 && r.err == nil {
		r.err = &UnknownFlagsError{What: "QueryReq.Flags", Bits: unknown}
	}
	q.Q.Op = pps.BoolOp(r.byte("QueryReq.Op"))
	nPreds := r.count("QueryReq.Preds", 1)
	q.Q.Preds = nil
	if nPreds > 0 && r.err == nil {
		q.Q.Preds = make([]pps.BloomQuery, 0, capHint(nPreds))
		for i := 0; i < nPreds && r.err == nil; i++ {
			nTd := r.count("QueryReq.Trapdoor", 1)
			if r.err != nil {
				break
			}
			td := make([][]byte, 0, capHint(nTd))
			for j := 0; j < nTd && r.err == nil; j++ {
				td = append(td, r.bytes("QueryReq.Trapdoor element"))
			}
			q.Q.Preds = append(q.Q.Preds, pps.BloomQuery{Trapdoor: td})
		}
	}
	q.Plain = r.plain()
	return r.finish("QueryReq")
}

// --- FEQueryReq ---

// AppendWire implements wire.WireAppender.
func (q FEQueryReq) AppendWire(b []byte) []byte {
	b = appendZigzag(b, int64(q.Priority))
	b = append(b, byte(q.Q.Op))
	b = binary.AppendUvarint(b, uint64(len(q.Q.Preds)))
	for _, p := range q.Q.Preds {
		b = binary.AppendUvarint(b, uint64(len(p.Trapdoor)))
		for _, x := range p.Trapdoor {
			b = binary.AppendUvarint(b, uint64(len(x)))
			b = append(b, x...)
		}
	}
	b = appendPlain(b, q.Plain)
	b = binary.AppendUvarint(b, uint64(len(q.Tenant)))
	b = append(b, q.Tenant...)
	b = append(b, q.CacheControl)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *FEQueryReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Priority = int(r.zigzag("FEQueryReq.Priority"))
	q.Q.Op = pps.BoolOp(r.byte("FEQueryReq.Op"))
	nPreds := r.count("FEQueryReq.Preds", 1)
	q.Q.Preds = nil
	if nPreds > 0 && r.err == nil {
		q.Q.Preds = make([]pps.BloomQuery, 0, capHint(nPreds))
		for i := 0; i < nPreds && r.err == nil; i++ {
			nTd := r.count("FEQueryReq.Trapdoor", 1)
			if r.err != nil {
				break
			}
			td := make([][]byte, 0, capHint(nTd))
			for j := 0; j < nTd && r.err == nil; j++ {
				td = append(td, r.bytes("FEQueryReq.Trapdoor element"))
			}
			q.Q.Preds = append(q.Q.Preds, pps.BloomQuery{Trapdoor: td})
		}
	}
	q.Plain = r.plain()
	q.Tenant = string(r.bytes("FEQueryReq.Tenant"))
	q.CacheControl = r.byte("FEQueryReq.CacheControl")
	return r.finish("FEQueryReq")
}

// --- QueryResp ---

// AppendWire implements wire.WireAppender.
func (q QueryResp) AppendWire(b []byte) []byte {
	b = appendZigzag(b, int64(q.Scanned))
	b = appendZigzag(b, q.MatchNanos)
	b = appendZigzag(b, int64(q.QueueDepth))
	b = appendIDs(b, q.IDs)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *QueryResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Scanned = int(r.zigzag("QueryResp.Scanned"))
	q.MatchNanos = r.zigzag("QueryResp.MatchNanos")
	q.QueueDepth = int(r.zigzag("QueryResp.QueueDepth"))
	q.IDs = r.ids("QueryResp.IDs")
	return r.finish("QueryResp")
}

// --- PutReq ---

// AppendWire implements wire.WireAppender.
func (p PutReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Records)))
	for _, rec := range p.Records {
		b = binary.AppendUvarint(b, rec.ID)
		b = binary.AppendUvarint(b, uint64(len(rec.Nonce)))
		b = append(b, rec.Nonce...)
		b = binary.AppendUvarint(b, uint64(len(rec.Filter)))
		b = append(b, rec.Filter...)
	}
	b = appendZigzag(b, int64(p.Epoch))
	return b
}

// DecodeWire implements wire.WireDecoder.
func (p *PutReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	n := r.count("PutReq.Records", 3)
	p.Records = nil
	if n > 0 && r.err == nil {
		p.Records = make([]pps.Encoded, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			var rec pps.Encoded
			rec.ID = r.uvarint("PutReq record id")
			rec.Nonce = r.bytes("PutReq record nonce")
			rec.Filter = r.bytes("PutReq record filter")
			p.Records = append(p.Records, rec)
		}
	}
	p.Epoch = int(r.zigzag("PutReq.Epoch"))
	return r.finish("PutReq")
}

// --- IngestReq / IngestResp ---

// Ingest appends carry the same raw nonce/filter bytes as replica
// pushes, so they ride the binary path too.

// AppendWire implements wire.WireAppender.
func (q IngestReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(q.Records)))
	for _, rec := range q.Records {
		b = binary.AppendUvarint(b, rec.ID)
		b = binary.AppendUvarint(b, uint64(len(rec.Nonce)))
		b = append(b, rec.Nonce...)
		b = binary.AppendUvarint(b, uint64(len(rec.Filter)))
		b = append(b, rec.Filter...)
	}
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *IngestReq) DecodeWire(data []byte) error {
	r := &reader{data: data}
	n := r.count("IngestReq.Records", 3)
	q.Records = nil
	if n > 0 && r.err == nil {
		q.Records = make([]pps.Encoded, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			var rec pps.Encoded
			rec.ID = r.uvarint("IngestReq record id")
			rec.Nonce = r.bytes("IngestReq record nonce")
			rec.Filter = r.bytes("IngestReq record filter")
			q.Records = append(q.Records, rec)
		}
	}
	return r.finish("IngestReq")
}

// AppendWire implements wire.WireAppender.
func (q IngestResp) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.Seq)
	b = binary.AppendUvarint(b, q.Drained)
	return b
}

// DecodeWire implements wire.WireDecoder.
func (q *IngestResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	q.Seq = r.uvarint("IngestResp.Seq")
	q.Drained = r.uvarint("IngestResp.Drained")
	return r.finish("IngestResp")
}

// --- PingReq / PingResp ---

// AppendWire implements wire.WireAppender (a ping carries no payload;
// the empty binary body still skips the JSON envelope).
func (PingReq) AppendWire(b []byte) []byte { return b }

// DecodeWire implements wire.WireDecoder.
func (*PingReq) DecodeWire(data []byte) error {
	if len(data) != 0 {
		return &TrailingBytesError{What: "PingReq", N: len(data)}
	}
	return nil
}

// AppendWire implements wire.WireAppender.
func (p PingResp) AppendWire(b []byte) []byte {
	return appendZigzag(b, int64(p.QueueDepth))
}

// DecodeWire implements wire.WireDecoder.
func (p *PingResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	p.QueueDepth = int(r.zigzag("PingResp.QueueDepth"))
	return r.finish("PingResp")
}

// --- HealthReport / HealthResp ---

// Health reports ride the binary path like the hot bodies: every
// frontend pushes one per report interval, so at fleet scale the
// membership server decodes them continuously and the JSON envelope tax
// (base64-free here, but per-field keys and decimal counters) is worth
// shedding. A NodeHealth entry needs at least 16 wire bytes (eight
// 1-byte varints plus the 8-byte speed) and a TenantLoad at least 5,
// which bound the decoder's count-versus-bytes sanity checks.

const (
	nodeHealthMinBytes = 16
	tenantLoadMinBytes = 5
)

// AppendWire implements wire.WireAppender.
func (h HealthReport) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(h.FE)))
	b = append(b, h.FE...)
	b = binary.AppendUvarint(b, h.Seq)
	b = appendZigzag(b, int64(h.Shed))
	b = appendZigzag(b, int64(h.ShedNormal))
	b = appendZigzag(b, int64(h.HedgesDenied))
	b = appendZigzag(b, h.QueueP50Nanos)
	b = appendZigzag(b, h.QueueP99Nanos)
	b = binary.AppendUvarint(b, uint64(len(h.Nodes)))
	for _, nh := range h.Nodes {
		b = appendZigzag(b, int64(nh.ID))
		b = appendZigzag(b, int64(nh.Suspicions))
		b = appendZigzag(b, int64(nh.ProbeOKs))
		b = appendZigzag(b, int64(nh.ProbeFails))
		b = appendZigzag(b, int64(nh.Contacts))
		b = appendZigzag(b, int64(nh.QueueDepth))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(nh.Speed))
		b = appendZigzag(b, nh.LatP50Nanos)
		b = appendZigzag(b, nh.LatP99Nanos)
	}
	b = binary.AppendUvarint(b, uint64(len(h.Tenants)))
	for _, tl := range h.Tenants {
		b = binary.AppendUvarint(b, uint64(len(tl.Tenant)))
		b = append(b, tl.Tenant...)
		b = appendZigzag(b, int64(tl.Admitted))
		b = appendZigzag(b, int64(tl.Shed))
		b = appendZigzag(b, int64(tl.CacheHits))
		b = appendZigzag(b, int64(tl.CacheMisses))
	}
	return b
}

// DecodeWire implements wire.WireDecoder.
func (h *HealthReport) DecodeWire(data []byte) error {
	r := &reader{data: data}
	h.FE = string(r.bytes("HealthReport.FE"))
	h.Seq = r.uvarint("HealthReport.Seq")
	h.Shed = int(r.zigzag("HealthReport.Shed"))
	h.ShedNormal = int(r.zigzag("HealthReport.ShedNormal"))
	h.HedgesDenied = int(r.zigzag("HealthReport.HedgesDenied"))
	h.QueueP50Nanos = r.zigzag("HealthReport.QueueP50Nanos")
	h.QueueP99Nanos = r.zigzag("HealthReport.QueueP99Nanos")
	n := r.count("HealthReport.Nodes", nodeHealthMinBytes)
	h.Nodes = nil
	if n > 0 && r.err == nil {
		h.Nodes = make([]NodeHealth, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			var nh NodeHealth
			nh.ID = int(r.zigzag("NodeHealth.ID"))
			nh.Suspicions = int(r.zigzag("NodeHealth.Suspicions"))
			nh.ProbeOKs = int(r.zigzag("NodeHealth.ProbeOKs"))
			nh.ProbeFails = int(r.zigzag("NodeHealth.ProbeFails"))
			nh.Contacts = int(r.zigzag("NodeHealth.Contacts"))
			nh.QueueDepth = int(r.zigzag("NodeHealth.QueueDepth"))
			nh.Speed = math.Float64frombits(r.u64("NodeHealth.Speed"))
			nh.LatP50Nanos = r.zigzag("NodeHealth.LatP50Nanos")
			nh.LatP99Nanos = r.zigzag("NodeHealth.LatP99Nanos")
			h.Nodes = append(h.Nodes, nh)
		}
	}
	nt := r.count("HealthReport.Tenants", tenantLoadMinBytes)
	h.Tenants = nil
	if nt > 0 && r.err == nil {
		h.Tenants = make([]TenantLoad, 0, capHint(nt))
		for i := 0; i < nt && r.err == nil; i++ {
			var tl TenantLoad
			tl.Tenant = string(r.bytes("TenantLoad.Tenant"))
			tl.Admitted = int(r.zigzag("TenantLoad.Admitted"))
			tl.Shed = int(r.zigzag("TenantLoad.Shed"))
			tl.CacheHits = int(r.zigzag("TenantLoad.CacheHits"))
			tl.CacheMisses = int(r.zigzag("TenantLoad.CacheMisses"))
			h.Tenants = append(h.Tenants, tl)
		}
	}
	return r.finish("HealthReport")
}

// AppendWire implements wire.WireAppender.
func (h HealthResp) AppendWire(b []byte) []byte {
	b = appendZigzag(b, int64(h.Epoch))
	b = binary.AppendUvarint(b, uint64(len(h.Quarantined)))
	for _, id := range h.Quarantined {
		b = appendZigzag(b, int64(id))
	}
	return b
}

// DecodeWire implements wire.WireDecoder.
func (h *HealthResp) DecodeWire(data []byte) error {
	r := &reader{data: data}
	h.Epoch = int(r.zigzag("HealthResp.Epoch"))
	n := r.count("HealthResp.Quarantined", 1)
	h.Quarantined = nil
	if n > 0 && r.err == nil {
		h.Quarantined = make([]int, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			h.Quarantined = append(h.Quarantined, int(r.zigzag("HealthResp.Quarantined id")))
		}
	}
	return r.finish("HealthResp")
}
