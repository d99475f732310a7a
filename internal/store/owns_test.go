package store

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"roar/internal/pps"
)

// TestStoreOwnsRecordBytes: the store keeps its own copy of every record
// it holds, and lends none. After each Insert the caller's nonces and
// filters are overwritten, and so is every record Get and InArc return;
// a second Get, a second InArc and a scan must still see exactly what
// was inserted, against a reference store whose inputs nobody touches.
// The steps cover fresh records (a batch and a single one), held ids
// replaced with fields of the same lengths (copied over the bytes they
// replace, so the stored nonce stays where it was), and held ids whose
// fields change length.
func TestStoreOwnsRecordBytes(t *testing.T) {
	pool, enc := testRecords(t, 48)
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	if err != nil {
		t.Fatal(err)
	}
	// relabel returns the records of pool[from:to] under the ids of
	// pool[0:to-from]: the same lengths, other bytes.
	relabel := func(from, to int) []pps.Encoded {
		out := cloneRecs(pool[from:to])
		for i := range out {
			out[i].ID = pool[i].ID
		}
		return out
	}
	// resized is pool[i] for i in [from, to) with its nonce one byte
	// longer and its filter half as long.
	resized := func(from, to int) []pps.Encoded {
		out := cloneRecs(pool[from:to])
		for i := range out {
			out[i].Nonce = append(out[i].Nonce, 7)
			out[i].Filter = out[i].Filter[:len(out[i].Filter)/2]
		}
		return out
	}
	steps := []struct {
		name    string
		recs    []pps.Encoded
		inPlace bool // every record replaces a held id of the same lengths
	}{
		{"fresh batch", cloneRecs(pool[:40]), false},
		{"fresh single", cloneRecs(pool[40:41]), false},
		{"replaced in place, batch", relabel(20, 40), true},
		{"replaced in place, single", relabel(41, 42), true},
		{"length-changing batch", resized(5, 15), false},
		{"length-changing single", resized(30, 31), false},
		{"back to the old lengths", cloneRecs(pool[5:15]), false},
	}
	s, ref := New(), New()
	held := map[uint64][]byte{} // id -> &Nonce[0] as stored, for the in-place steps
	for _, st := range steps {
		if st.inPlace {
			s.mu.RLock()
			for _, r := range st.recs {
				i := s.lowerLocked(r.ID)
				held[r.ID] = s.recs[i].Nonce
			}
			s.mu.RUnlock()
		}
		ref.Insert(cloneRecs(st.recs)...)
		s.Insert(st.recs...)
		clobber(st.recs)
		checkScheduleInvariants(t, s, st.name)
		if st.inPlace {
			for _, r := range st.recs {
				s.mu.RLock()
				now := s.recs[s.lowerLocked(r.ID)].Nonce
				s.mu.RUnlock()
				if &now[0] != &held[r.ID][0] {
					t.Fatalf("%s: record %d was given new bytes, want its old ones overwritten", st.name, r.ID)
				}
			}
		}

		all := ref.InArc(0, 0) // lo == hi: the whole ring
		for _, w := range all {
			g, ok := s.Get(w.ID)
			if !ok || !sameRec(g, w) {
				t.Fatalf("%s: Get(%d) differs from the record inserted", st.name, w.ID)
			}
			clobber([]pps.Encoded{g})
			if g, _ := s.Get(w.ID); !sameRec(g, w) {
				t.Fatalf("%s: overwriting what Get returned changed record %d", st.name, w.ID)
			}
		}
		got := s.InArc(0, 0)
		clobber(got)
		got = s.InArc(0, 0)
		if len(got) != len(all) {
			t.Fatalf("%s: InArc returns %d records, want %d", st.name, len(got), len(all))
		}
		for i := range all {
			if !sameRec(got[i], all[i]) {
				t.Fatalf("%s: overwriting what InArc returned changed record %d", st.name, all[i].ID)
			}
		}

		gotIDs, _, err := s.MatchArc(context.Background(), m, q, 0, 0, MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, _, err := ref.MatchArc(context.Background(), m, q, 0, 0, MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(wantIDs) == 0 || !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("%s: the scan matches %v, the reference %v", st.name, gotIDs, wantIDs)
		}
	}
}

func sameRec(a, b pps.Encoded) bool {
	return a.ID == b.ID && bytes.Equal(a.Nonce, b.Nonce) && bytes.Equal(a.Filter, b.Filter)
}
