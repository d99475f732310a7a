//go:build !race

package proto

import (
	"testing"

	"roar/internal/pps"
)

// The race detector instruments allocations, so the counts below are
// only meaningful without -race.

// TestRecordDecodersAllocateOncePerRecord pins the replica apply's decode
// cost: a push of k records costs the Records slice plus one allocation
// per record, never two (nonce and filter apart) and never one for the
// whole push (an arena a kept record would pin). Each copy's capacity
// ends at its length, and an empty field decodes as nil.
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
	}{
		{"PutReq", func() error { return p.DecodeWire(put) }, &p.Records},
		{"IngestReq", func() error { return q.DecodeWire(ingest) }, &q.Records},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(len(recs) + 1); allocs != want {
			t.Errorf("%s: decoding %d records allocates %.0f objects, want %.0f", c.name, len(recs), allocs, want)
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
