package pps

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"roar/internal/binfmt"
)

// viaJSON is v after a JSON round trip: the reference the binary forms
// are checked against, as the proto bodies' are.
func viaJSON[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// orNil is b, or nil when b is empty: the decoders' one form of an empty
// byte string.
func orNil(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// TestEncodedRoundTripQuick: any record, its nonce and filter each empty
// or not, decodes through DecodeRecord and ViewRecord alike to its JSON
// round trip, re-encodes to the same bytes, and every strict prefix of
// its bytes fails to decode.
func TestEncodedRoundTripQuick(t *testing.T) {
	f := func(id uint64, nonce, filter []byte) bool {
		nonce, filter = orNil(nonce), orNil(filter)
		for _, in := range []Encoded{
			{ID: id, BloomMetadata: BloomMetadata{Nonce: nonce, Filter: filter}},
			{ID: id, BloomMetadata: BloomMetadata{Filter: filter}},
			{ID: id, BloomMetadata: BloomMetadata{Nonce: nonce}},
			{ID: id},
		} {
			b, want := AppendRecord(nil, in), viaJSON(t, in)
			for _, decode := range []func(*binfmt.Reader, *Encoded){DecodeRecord, ViewRecord} {
				r := binfmt.NewReader(b)
				var out Encoded
				decode(&r, &out)
				if err := r.Finish("record"); err != nil || !reflect.DeepEqual(out, want) || !bytes.Equal(AppendRecord(nil, out), b) {
					t.Fatalf("record %x decoded to %+v (%v), want %+v and the same bytes again", b, out, err, want)
				}
				for cut := 0; cut < len(b); cut++ {
					r := binfmt.NewReader(b[:cut])
					decode(&r, &out)
					if r.Finish("record") == nil {
						t.Fatalf("prefix %d/%d of record %x decoded cleanly", cut, len(b), b)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQueryRoundTripQuick: any query decodes to its JSON round trip and
// re-encodes to the same bytes. Its empty trapdoor elements are nil, and
// a predicate without elements has an empty, non-nil trapdoor: the form
// DecodeQuery returns.
func TestQueryRoundTripQuick(t *testing.T) {
	f := func(op uint8, preds [][][]byte) bool {
		in := Query{Op: BoolOp(op)}
		for _, td := range preds {
			for i := range td {
				td[i] = orNil(td[i])
			}
			in.Preds = append(in.Preds, BloomQuery{Trapdoor: td})
		}
		b := AppendQuery(nil, in)
		r := binfmt.NewReader(b)
		var out Query
		DecodeQuery(&r, &out)
		if err := r.Finish("query"); err != nil || !reflect.DeepEqual(out, viaJSON(t, in)) || !bytes.Equal(AppendQuery(nil, out), b) {
			t.Fatalf("query %x decoded to %+v (%v), want %+v and the same bytes again", b, out, err, in)
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
