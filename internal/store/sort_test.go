package store

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"roar/internal/pps"
)

// fuzzRec decodes one record from two bytes: the first picks the id (four
// ids per bucket across a quarter of the ring, and 255 the largest id),
// the second is the write's version, carried in nonce and filter.
func fuzzRec(idByte, version byte) pps.Encoded {
	id := uint64(idByte>>2)<<bucketShift | uint64(idByte&3)<<20
	if idByte == 255 {
		id = math.MaxUint64
	}
	r := pps.Encoded{ID: id}
	r.Nonce = bytes.Repeat([]byte{version, idByte}, 8)
	r.Filter = bytes.Repeat([]byte{version}, 8)
	return r
}

// FuzzInsertBatchEqualsSequential: one Insert of an arbitrary batch (any
// order, repeated ids, sorted or not, into a store holding any records)
// leaves the store exactly as inserting the batch one record at a time
// does: the same records, byte for byte, Len, key schedules and stamped
// buckets, every stamp the call's one generation. The caller's batch is
// not modified, and the store keeps none of its bytes: the batch's (and
// the stored records') input bytes are overwritten once Insert returns,
// while the sequential reference inserts copies nobody overwrites.
//
// Input: data[0] is the number of records stored first, data[1] bit 0
// keeps schedules and bit 1 sorts the batch ascending (duplicates stay),
// then two bytes per record (fuzzRec).
func FuzzInsertBatchEqualsSequential(f *testing.F) {
	f.Add([]byte{0, 1, 9, 1, 3, 1, 9, 2, 5, 1})                   // unsorted, a repeat, empty store
	f.Add([]byte{3, 1, 4, 1, 8, 1, 12, 1, 8, 2, 13, 2, 2, 2})     // held and fresh ids
	f.Add([]byte{2, 3, 0, 1, 255, 1, 0, 2, 7, 2, 255, 2, 9, 2})   // sorted, both ends of the id space
	f.Add([]byte{0, 3, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1})       // strictly ascending
	f.Add([]byte{1, 0, 40, 1, 41, 2, 40, 3, 41, 4, 40, 5, 42, 6}) // unscheduled, rewrites
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		stored, flags := int(data[0]), data[1]
		var recs []pps.Encoded
		for i := 2; i+1 < len(data); i += 2 {
			recs = append(recs, fuzzRec(data[i], data[i+1]))
		}
		stored = min(stored, len(recs))
		batch := recs[stored:]
		if flags&2 != 0 {
			slices.SortFunc(batch, func(a, b pps.Encoded) int { return cmp.Compare(a.ID, b.ID) })
		}
		pristine := cloneRecs(recs)
		got, want := New(), New()
		got.Insert(recs[:stored]...)
		clobber(recs[:stored])
		want.Insert(pristine[:stored]...)
		if flags&1 != 0 {
			got.activateSchedules()
			want.activateSchedules()
		}
		genBefore, wantGenBefore := got.gen, want.gen
		got.Insert(batch...)
		for i, r := range batch {
			p := pristine[stored+i]
			if r.ID != p.ID || !bytes.Equal(r.Nonce, p.Nonce) || !bytes.Equal(r.Filter, p.Filter) {
				t.Fatalf("Insert modified the caller's batch at %d", i)
			}
		}
		clobber(batch)
		for _, r := range pristine[stored:] {
			want.Insert(r)
		}

		checkScheduleInvariants(t, got, "batch")
		checkScheduleInvariants(t, want, "sequential")
		if got.Len() != want.Len() {
			t.Fatalf("batch insert holds %d records, sequential insertion %d", got.Len(), want.Len())
		}
		for i := range want.recs {
			g, w := got.recs[i], want.recs[i]
			if g.ID != w.ID || !bytes.Equal(g.Nonce, w.Nonce) || !bytes.Equal(g.Filter, w.Filter) {
				t.Fatalf("record %d: batch insert holds id %d version %d, sequential id %d version %d",
					i, g.ID, g.Filter[0], w.ID, w.Filter[0])
			}
		}
		if !slices.Equal(got.ks, want.ks) {
			t.Fatalf("key schedules differ from sequential insertion")
		}
		wantGen := genBefore
		if len(batch) > 0 {
			wantGen++
		}
		if got.gen != wantGen {
			t.Fatalf("one Insert of %d records advanced gen by %d", len(batch), got.gen-genBefore)
		}
		for b := range got.changed {
			stamped := got.changed[b] > genBefore
			if stamped != (want.changed[b] > wantGenBefore) {
				t.Fatalf("bucket %d: stamped by the batch insert: %v, by sequential insertion: %v", b, stamped, !stamped)
			}
			if stamped && got.changed[b] != got.gen {
				t.Fatalf("bucket %d stamped %d, want the call's gen %d", b, got.changed[b], got.gen)
			}
		}
	})
}

// cloneRecs returns recs with every nonce and filter copied.
func cloneRecs(recs []pps.Encoded) []pps.Encoded {
	out := make([]pps.Encoded, len(recs))
	for i, r := range recs {
		out[i] = r
		out[i].Nonce, out[i].Filter = slices.Clone(r.Nonce), slices.Clone(r.Filter)
	}
	return out
}

// clobber inverts every byte of every nonce and filter of recs, as a
// caller reusing its buffers would overwrite them.
func clobber(recs []pps.Encoded) {
	for _, r := range recs {
		for _, b := range [][]byte{r.Nonce, r.Filter} {
			for i := range b {
				b[i] = ^b[i]
			}
		}
	}
}
