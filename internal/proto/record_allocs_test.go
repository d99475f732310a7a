//go:build !race

package proto

import (
	"testing"

	"roar/internal/pps"
)

// The race detector instruments allocations, so the counts below are
// only meaningful without -race.

// TestRecordDecodersAllocateOncePerRecord pins the record decoders' cost.
// A push (PutReq) of k records allocates its Records slice and nothing
// else: every nonce and filter is a view of the body, which the node's
// store copies (TestNodePutKeepsNoFrameBytes pins that nothing keeps the
// body). An ingest append (IngestReq), which the coordinator keeps past
// the call, costs the slice plus one allocation per record, never two
// (nonce and filter apart) and never one for the whole append (an arena a
// kept record would pin). In both, every field's capacity ends at its
// length, so appending to one never writes into another or the body, and
// an empty field decodes as nil.
func TestRecordDecodersAllocateOncePerRecord(t *testing.T) {
	recs := testRecords(64)
	recs[3].Nonce, recs[5].Filter = nil, nil
	put := PutReq{Records: recs, Epoch: 7}.AppendWire(nil)
	ingest := IngestReq{Records: recs}.AppendWire(nil)
	var p PutReq
	var q IngestReq
	for _, c := range []struct {
		name   string
		decode func() error
		got    *[]pps.Encoded
		want   float64
	}{
		{"PutReq", func() error { return p.DecodeWire(put) }, &p.Records, 1},
		{"IngestReq", func() error { return q.DecodeWire(ingest) }, &q.Records, float64(len(recs) + 1)},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s: decoding %d records allocates %.0f objects, want %.0f", c.name, len(recs), allocs, c.want)
		}
		for i, r := range *c.got {
			if cap(r.Nonce) != len(r.Nonce) || cap(r.Filter) != len(r.Filter) {
				t.Fatalf("%s record %d: nonce cap %d len %d, filter cap %d len %d: one field can grow into the other",
					c.name, i, cap(r.Nonce), len(r.Nonce), cap(r.Filter), len(r.Filter))
			}
			if (len(recs[i].Nonce) == 0) != (r.Nonce == nil) || (len(recs[i].Filter) == 0) != (r.Filter == nil) {
				t.Fatalf("%s record %d: an empty field must decode as nil and only an empty one", c.name, i)
			}
		}
	}
}
