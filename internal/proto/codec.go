// Binary body codecs. A body is binary exactly when it carries records,
// trapdoors or id sets: QueryReq and FEQueryReq (trapdoor matrices),
// QueryResp (a sorted id set), PutReq and IngestReq (record nonces and
// filters). Those five carry nearly all of the cluster's steady-state
// bytes, and JSON would spend 4/3× on base64 for every trapdoor, nonce
// and filter and ~20 decimal characters per object id; these encodings
// ship raw bytes, varints, and delta-compressed sorted id sets instead.
// Every other body (pings, health reports, replication, leases, ingest
// acks, membership, stats, retain) travels as JSON inside the binary
// envelope (see internal/wire/codec.go).
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

// view reads a uvarint-length-prefixed byte string in place: the result
// aliases the pooled input, so whatever is kept must be copied.
func (r *reader) view(what string) []byte {
	l := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)-r.off) < l {
		r.fail(what)
		return nil
	}
	out := r.data[r.off : r.off+int(l)]
	r.off += int(l)
	return out
}

// bytes reads a uvarint-length-prefixed byte string and COPIES it (the
// underlying buffer is pooled); an empty string is nil.
func (r *reader) bytes(what string) []byte {
	v := r.view(what)
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// TrailingBytesError is the strict decoders' rejection of input that
// continues past the last field.
type TrailingBytesError struct {
	What string // body name, e.g. "PutReq"
	N    int    // unread byte count
}

func (e *TrailingBytesError) Error() string {
	return fmt.Sprintf("proto: %d trailing bytes after %s", e.N, e.What)
}

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
			nonce := r.view("PutReq record nonce")
			rec.Nonce, rec.Filter = pps.CopyMetadata(nonce, r.view("PutReq record filter"))
			p.Records = append(p.Records, rec)
		}
	}
	p.Epoch = int(r.zigzag("PutReq.Epoch"))
	return r.finish("PutReq")
}

// --- IngestReq ---

// Ingest appends carry the same raw nonce/filter bytes as replica
// pushes, so they ride the binary path too; their ack (IngestResp) is
// two counters and travels as JSON.

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
			nonce := r.view("IngestReq record nonce")
			rec.Nonce, rec.Filter = pps.CopyMetadata(nonce, r.view("IngestReq record filter"))
			q.Records = append(q.Records, rec)
		}
	}
	return r.finish("IngestReq")
}
