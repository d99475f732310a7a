package store

import (
	"bytes"
	"fmt"
	"testing"

	"roar/internal/pps"
)

// insertRec builds a record at ring slot `slot` (64 slots per bucket, so
// neighbouring slots share a bucket and distant ones do not) whose nonce
// and filter identify the write's version.
func insertRec(slot uint64, version byte) pps.Encoded {
	r := pps.Encoded{ID: slot << (bucketShift - 6)}
	r.Nonce = bytes.Repeat([]byte{version, byte(slot)}, 8)
	r.Filter = bytes.Repeat([]byte{version}, 8)
	return r
}

// TestInsertBatchCases compares the batch path of Insert, case by case,
// with inserting the same records one at a time into a reference store:
// the records, the key schedules in step with them, which buckets were
// stamped, and one generation per call.
func TestInsertBatchCases(t *testing.T) {
	var stored []pps.Encoded // slots 100, 110, ..., 290
	for slot := uint64(100); slot < 300; slot += 10 {
		stored = append(stored, insertRec(slot, 1))
	}
	batchOf := func(version byte, slots ...uint64) []pps.Encoded {
		recs := make([]pps.Encoded, len(slots))
		for i, slot := range slots {
			recs[i] = insertRec(slot, version)
		}
		return recs
	}
	cases := []struct {
		name  string
		empty bool // insert into an empty store
		batch []pps.Encoded
	}{
		{name: "all existing", batch: batchOf(2, 110, 150, 290)},
		{name: "all existing, whole store", batch: func() []pps.Encoded {
			var slots []uint64
			for slot := uint64(100); slot < 300; slot += 10 {
				slots = append(slots, slot)
			}
			return batchOf(2, slots...)
		}()},
		{name: "all fresh", batch: batchOf(2, 105, 155, 156, 285)},
		{name: "mixed", batch: batchOf(2, 100, 105, 110, 200, 205, 290, 295)},
		{name: "mixed, unsorted", batch: batchOf(2, 295, 110, 205, 100, 290, 105, 200)},
		{name: "below every stored id", batch: batchOf(2, 1, 2, 3)},
		{name: "above every stored id", batch: batchOf(2, 300, 310, 1000)},
		{name: "below, above and the ends", batch: batchOf(2, 0, 100, 290, 1023)},
		{name: "duplicates, existing id", batch: append(batchOf(2, 150, 160), batchOf(3, 150)...)},
		{name: "duplicates, fresh id", batch: append(batchOf(2, 155, 150, 155), batchOf(3, 155, 7)...)},
		{name: "into an empty store", empty: true, batch: batchOf(2, 30, 10, 20, 10)},
	}
	for _, scheduled := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/scheduled=%v", tc.name, scheduled), func(t *testing.T) {
				got, want := New(), New()
				if !tc.empty {
					got.Insert(stored...)
					want.Insert(stored...)
				}
				if scheduled {
					got.activateSchedules()
					want.activateSchedules()
				}
				genBefore, wantGenBefore := got.gen, want.gen
				got.Insert(tc.batch...)
				for _, r := range tc.batch {
					want.Insert(r)
				}

				checkScheduleInvariants(t, got, "batch")
				checkScheduleInvariants(t, want, "reference")
				if len(got.recs) != len(want.recs) {
					t.Fatalf("batch insert holds %d records, per-record insertion %d", len(got.recs), len(want.recs))
				}
				for i := range want.recs {
					g, w := got.recs[i], want.recs[i]
					if g.ID != w.ID || !bytes.Equal(g.Nonce, w.Nonce) || !bytes.Equal(g.Filter, w.Filter) {
						t.Fatalf("record %d: batch insert holds id %d version %d, per-record insertion id %d version %d",
							i, g.ID, g.Filter[0], w.ID, w.Filter[0])
					}
				}
				if got.gen != genBefore+1 {
					t.Fatalf("one Insert call advanced gen by %d", got.gen-genBefore)
				}
				for b := range got.changed {
					stamped := got.changed[b] > genBefore
					if stamped != (want.changed[b] > wantGenBefore) {
						t.Fatalf("bucket %d: stamped by the batch insert: %v, by per-record insertion: %v", b, stamped, !stamped)
					}
					if stamped && got.changed[b] != got.gen {
						t.Fatalf("bucket %d stamped %d, want the call's gen %d", b, got.changed[b], got.gen)
					}
				}
			})
		}
	}
}

// BenchmarkInsertExisting is the drain's steady state: a batch of ids the
// store already holds (a re-delivery, or a rewrite of existing objects).
func BenchmarkInsertExisting(b *testing.B) {
	const n, k = 8192, 256
	recs := make([]pps.Encoded, n)
	for i := range recs {
		recs[i].ID = uint64(i) << 40
		recs[i].Nonce = make([]byte, 16)
		recs[i].Filter = make([]byte, 64)
	}
	s := New()
	s.Insert(recs...)
	batch := make([]pps.Encoded, k)
	for i := range batch {
		batch[i] = recs[i*(n/k)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(batch...)
	}
}
