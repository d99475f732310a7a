package pps

import (
	"encoding/binary"

	"roar/internal/binfmt"
)

// A record and an encrypted query each have one binary form, written and
// read only here. Replica pushes and ingest appends (proto.PutReq,
// proto.IngestReq), WAL frames and the corpus file (store.SaveFile) carry
// records in it; both query bodies, the frontend's result-cache key and
// the nodes' match memo carry or hash queries in it.

// AppendRecord appends rec's one binary form: uvarint id, then the nonce
// and the filter, each behind a uvarint length.
func AppendRecord(b []byte, rec Encoded) []byte {
	b = binary.AppendUvarint(b, rec.ID)
	b = binary.AppendUvarint(b, uint64(len(rec.Nonce)))
	b = append(b, rec.Nonce...)
	b = binary.AppendUvarint(b, uint64(len(rec.Filter)))
	return append(b, rec.Filter...)
}

// DecodeRecord reads into rec one record AppendRecord wrote, copying its
// nonce and filter out of r's input in one allocation (CopyMetadata).
func DecodeRecord(r *binfmt.Reader, rec *Encoded) {
	rec.ID = r.Uvarint("record id")
	nonce := r.View("record nonce")
	rec.Nonce, rec.Filter = CopyMetadata(nonce, r.View("record filter"))
}

// ViewRecord reads into rec one record AppendRecord wrote, its nonce and
// filter left as views of r's input, each capped at its length so that
// appending to one never writes into the input; an empty field is nil.
// It allocates nothing, and rec is good only while the input is.
func ViewRecord(r *binfmt.Reader, rec *Encoded) {
	rec.ID = r.Uvarint("record id")
	rec.Nonce = capped(r.View("record nonce"))
	rec.Filter = capped(r.View("record filter"))
}

// capped is b with its capacity cut to its length, or nil when empty.
func capped(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// AppendQuery appends q's one binary form: the operator byte, then a
// uvarint predicate count, each predicate a uvarint element count and
// each trapdoor element behind a uvarint length. Two queries with equal
// bytes are matched identically by every server, so the bytes also key
// the frontend's result cache and the nodes' match memo.
func AppendQuery(b []byte, q Query) []byte {
	b = append(b, byte(q.Op))
	b = binary.AppendUvarint(b, uint64(len(q.Preds)))
	for _, pred := range q.Preds {
		b = binary.AppendUvarint(b, uint64(len(pred.Trapdoor)))
		for _, td := range pred.Trapdoor {
			b = binary.AppendUvarint(b, uint64(len(td)))
			b = append(b, td...)
		}
	}
	return b
}

// DecodeQuery reads into q one query AppendQuery wrote, copying every
// trapdoor element out of r's input.
func DecodeQuery(r *binfmt.Reader, q *Query) {
	q.Op = BoolOp(r.Byte("query op"))
	n := r.Count("query predicates", 1)
	q.Preds = nil
	if n == 0 {
		return
	}
	q.Preds = make([]BloomQuery, 0, binfmt.CapHint(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		nTd := r.Count("query trapdoor", 1)
		if r.Err() != nil {
			break
		}
		td := make([][]byte, 0, binfmt.CapHint(nTd))
		for j := 0; j < nTd && r.Err() == nil; j++ {
			td = append(td, r.Bytes("query trapdoor element"))
		}
		q.Preds = append(q.Preds, BloomQuery{Trapdoor: td})
	}
}
