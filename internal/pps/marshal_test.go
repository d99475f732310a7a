package pps

import (
	"bytes"
	"testing"
	"testing/quick"

	"roar/internal/binfmt"
)

// TestEncodedRoundTripQuick: any (id, nonce, filter) triple survives the
// one record form, and every strict prefix of its bytes fails to decode.
func TestEncodedRoundTripQuick(t *testing.T) {
	f := func(id uint64, nonce, filter []byte) bool {
		in := Encoded{ID: id, BloomMetadata: BloomMetadata{Nonce: nonce, Filter: filter}}
		b := AppendRecord(nil, in)
		r := binfmt.NewReader(b)
		var out Encoded
		DecodeRecord(&r, &out)
		if r.Finish("record") != nil || out.ID != in.ID ||
			!bytes.Equal(out.Nonce, in.Nonce) || !bytes.Equal(out.Filter, in.Filter) {
			return false
		}
		for cut := 0; cut < len(b); cut++ {
			r := binfmt.NewReader(b[:cut])
			DecodeRecord(&r, &out)
			if r.Finish("record") == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRecordNeverPanics: arbitrary bytes must produce an error or a
// record, never a panic (the corpus file and the WAL feed disk bytes
// straight in).
func TestDecodeRecordNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		r := binfmt.NewReader(raw)
		var e Encoded
		DecodeRecord(&r, &e)
		_ = r.Finish("record") // outcome irrelevant; must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
