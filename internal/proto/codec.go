// Binary body codecs. A body is binary exactly when it carries records,
// trapdoors or id sets: QueryReq and FEQueryReq (trapdoor matrices),
// QueryResp (a sorted id set), PutReq, IngestReq and DrainedResp (record
// nonces and filters). Those six carry nearly all of the cluster's steady-state
// bytes, and JSON would spend 4/3× on base64 for every trapdoor, nonce
// and filter and ~20 decimal characters per object id; these encodings
// ship raw bytes, varints, and delta-compressed sorted id sets instead.
// Every other body (pings, health reports, replication, leases, ingest
// acks, drained-record requests, membership, stats, retain) travels as JSON inside the binary
// envelope (see internal/wire/codec.go).
//
// A record and an encrypted query each have one binary form, owned by
// pps (AppendRecord/ViewRecord, AppendQuery/DecodeQuery): the bodies
// here frame them and add their own scalars, and every decoder reads
// through binfmt's cursor. Scalars are always written, an optional
// struct sits behind a presence byte. A type has exactly one wire form;
// changing one bumps wire.Version.
//
// Encoders use value receivers (bodies are passed to wire.Call by
// value); decoders use pointer receivers and copy every byte slice they
// retain, because the input aliases a pooled read buffer. PutReq is the
// one exception: its records are views, which its one receiver
// (node.Node.Put) hands to store.Store.Insert, the copy they get, before
// the handler returns.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"

	"roar/internal/binfmt"
	"roar/internal/pps"
)

// UnknownFlagsError is the decoders' rejection of a flags byte with a bit
// this version does not define.
type UnknownFlagsError struct {
	What string // field name, e.g. "QueryReq.Flags"
	Bits uint8  // the undefined bits that were set
}

func (e *UnknownFlagsError) Error() string {
	return fmt.Sprintf("proto: unknown bits %#02x in %s", e.Bits, e.What)
}

// NonFiniteError is the decoders' rejection of a NaN or infinite ring
// bound, which no ring point normalises from; a finite bound outside
// [0, 1) is the receiver's to normalise.
type NonFiniteError struct{ What string } // field name, e.g. "QueryReq.Lo"

func (e *NonFiniteError) Error() string { return "proto: " + e.What + " is not a finite ring bound" }

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

func decodeIDs(r *binfmt.Reader, what string) []uint64 {
	flag := r.Byte(what)
	if flag != idsAbsolute && flag != idsDelta {
		r.Fail(what + " encoding flag")
	}
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, binfmt.CapHint(n))
	prev := uint64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		v := r.Uvarint(what)
		if flag == idsDelta && i > 0 {
			v += prev
		}
		out = append(out, v)
		prev = v
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// --- the query block both query bodies share ---

// AppendQuery appends the block QueryReq and FEQueryReq share, which is
// also the frontend's result-cache key: the encrypted query in its one
// form (pps.AppendQuery), then the optional plaintext query behind a
// presence byte.
func AppendQuery(b []byte, q pps.Query, plain *PlainQuery) []byte {
	b = pps.AppendQuery(b, q)
	if plain == nil {
		return append(b, 0)
	}
	b = append(b, 1, plain.Mode)
	b = binary.AppendVarint(b, int64(plain.MinMatch))
	b = binary.AppendVarint(b, int64(plain.Limit))
	b = binary.AppendUvarint(b, uint64(len(plain.Terms)))
	for _, t := range plain.Terms {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	return b
}

// decodeQuery reads the block AppendQuery wrote.
func decodeQuery(r *binfmt.Reader) (q pps.Query, plain *PlainQuery) {
	pps.DecodeQuery(r, &q)
	if r.Byte("PlainQuery presence") == 0 {
		return q, nil
	}
	plain = &PlainQuery{Mode: r.Byte("PlainQuery.Mode")}
	plain.MinMatch = int(r.Varint("PlainQuery.MinMatch"))
	plain.Limit = int(r.Varint("PlainQuery.Limit"))
	n := r.Count("PlainQuery.Terms", 1)
	for i := 0; i < n && r.Err() == nil; i++ {
		plain.Terms = append(plain.Terms, string(r.View("PlainQuery term")))
	}
	return q, plain
}

// --- record lists ---

// appendRecords appends a uvarint count, then each record in its one
// form (pps.AppendRecord).
func appendRecords(b []byte, recs []pps.Encoded) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		b = pps.AppendRecord(b, recs[i])
	}
	return b
}

// viewRecords reads what appendRecords wrote, each record's nonce and
// filter a view of the input (pps.ViewRecord): one allocation, the
// slice. A record takes at least 3 bytes.
func viewRecords(r *binfmt.Reader, what string) []pps.Encoded {
	n := r.Count(what, 3)
	if n == 0 {
		return nil
	}
	recs := make([]pps.Encoded, 0, binfmt.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		recs = append(recs, pps.Encoded{})
		pps.ViewRecord(r, &recs[len(recs)-1])
	}
	return recs
}

// --- QueryReq ---

// AppendWire implements wire.WireAppender.
func (q QueryReq) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, q.QID)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(q.Lo))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(q.Hi))
	b = append(b, q.Flags)
	return AppendQuery(b, q.Q, q.Plain)
}

// DecodeWire implements wire.WireDecoder.
func (q *QueryReq) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	q.QID = r.Uvarint("QueryReq.QID")
	q.Lo = math.Float64frombits(r.U64("QueryReq.Lo"))
	q.Hi = math.Float64frombits(r.U64("QueryReq.Hi"))
	if math.IsNaN(q.Lo) || math.IsInf(q.Lo, 0) {
		r.FailWith(&NonFiniteError{What: "QueryReq.Lo"})
	}
	if math.IsNaN(q.Hi) || math.IsInf(q.Hi, 0) {
		r.FailWith(&NonFiniteError{What: "QueryReq.Hi"})
	}
	q.Flags = r.Byte("QueryReq.Flags")
	if unknown := q.Flags &^ queryFlagsKnown; unknown != 0 {
		r.FailWith(&UnknownFlagsError{What: "QueryReq.Flags", Bits: unknown})
	}
	q.Q, q.Plain = decodeQuery(&r)
	return r.Finish("QueryReq")
}

// --- FEQueryReq ---

// AppendWire implements wire.WireAppender.
func (q FEQueryReq) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, int64(q.Priority))
	b = AppendQuery(b, q.Q, q.Plain)
	b = binary.AppendUvarint(b, uint64(len(q.Tenant)))
	b = append(b, q.Tenant...)
	return append(b, q.CacheControl)
}

// DecodeWire implements wire.WireDecoder.
func (q *FEQueryReq) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	q.Priority = int(r.Varint("FEQueryReq.Priority"))
	q.Q, q.Plain = decodeQuery(&r)
	q.Tenant = string(r.View("FEQueryReq.Tenant"))
	q.CacheControl = r.Byte("FEQueryReq.CacheControl")
	return r.Finish("FEQueryReq")
}

// --- QueryResp ---

// AppendWire implements wire.WireAppender.
func (q QueryResp) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, int64(q.Scanned))
	b = binary.AppendVarint(b, q.MatchNanos)
	b = binary.AppendVarint(b, int64(q.QueueDepth))
	return appendIDs(b, q.IDs)
}

// DecodeWire implements wire.WireDecoder.
func (q *QueryResp) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	q.Scanned = int(r.Varint("QueryResp.Scanned"))
	q.MatchNanos = r.Varint("QueryResp.MatchNanos")
	q.QueueDepth = int(r.Varint("QueryResp.QueueDepth"))
	q.IDs = decodeIDs(&r, "QueryResp.IDs")
	return r.Finish("QueryResp")
}

// --- PutReq ---

// AppendWire implements wire.WireAppender.
func (p PutReq) AppendWire(b []byte) []byte {
	b = appendRecords(b, p.Records)
	return binary.AppendVarint(b, int64(p.Epoch))
}

// DecodeWire implements wire.WireDecoder. It is the one decoder that
// does not copy: every record's nonce and filter are views of data (see
// PutReq).
func (p *PutReq) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	p.Records = viewRecords(&r, "PutReq.Records")
	p.Epoch = int(r.Varint("PutReq.Epoch"))
	return r.Finish("PutReq")
}

// --- IngestReq ---

// AppendWire implements wire.WireAppender.
func (q IngestReq) AppendWire(b []byte) []byte {
	return appendRecords(b, q.Records)
}

// DecodeWire implements wire.WireDecoder. The coordinator keeps the
// records past the call, so each is copied out of data in one allocation
// (pps.CopyMetadata).
func (q *IngestReq) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	q.Records = viewRecords(&r, "IngestReq.Records")
	for i := range q.Records {
		rec := &q.Records[i]
		rec.Nonce, rec.Filter = pps.CopyMetadata(rec.Nonce, rec.Filter)
	}
	return r.Finish("IngestReq")
}

// --- DrainedResp ---

// AppendWire implements wire.WireAppender.
func (q DrainedResp) AppendWire(b []byte) []byte {
	return appendRecords(b, q.Records)
}

// DecodeWire implements wire.WireDecoder. The frontend keeps the records
// past the call, so each is copied out of data in one allocation
// (pps.CopyMetadata).
func (q *DrainedResp) DecodeWire(data []byte) error {
	r := binfmt.NewReader(data)
	q.Records = viewRecords(&r, "DrainedResp.Records")
	for i := range q.Records {
		rec := &q.Records[i]
		rec.Nonce, rec.Filter = pps.CopyMetadata(rec.Nonce, rec.Filter)
	}
	return r.Finish("DrainedResp")
}
