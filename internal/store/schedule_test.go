// Key-schedule maintenance tests: the store keeps one derived
// pps.KeySchedule per record from its first scan on, through every
// mutation. A schedule that drifts out of step with its record makes the
// scan evaluate the PRF under another record's nonce — silently wrong
// answers, not a crash — so the property is pinned structurally (every
// schedule equals a fresh derivation) and differentially (MatchArc
// equals the unscheduled matcher over InArc) after every step of a
// random interleaving.
package store

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"roar/internal/pps"
	"roar/internal/ring"
)

// checkScheduleInvariants asserts the store's structural invariants:
// records sorted and unique, the id array and the bucket directory in
// step with them, and one schedule per record, its nonce's, while the
// store keeps schedules.
func checkScheduleInvariants(t *testing.T, s *Store, when string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 1; i < len(s.recs); i++ {
		if s.recs[i-1].ID >= s.recs[i].ID {
			t.Fatalf("%s: recs not sorted and unique at %d: %d then %d", when, i, s.recs[i-1].ID, s.recs[i].ID)
		}
	}
	if len(s.ids) != len(s.recs) {
		t.Fatalf("%s: %d ids for %d records", when, len(s.ids), len(s.recs))
	}
	for i, r := range s.recs {
		if s.ids[i] != r.ID {
			t.Fatalf("%s: ids[%d] is %d, the record there is %d", when, i, s.ids[i], r.ID)
		}
	}
	var held [numBuckets]int // records per bucket
	for _, r := range s.recs {
		held[bucketOf(r.ID)]++
	}
	for b, below := 0, 0; b <= numBuckets; b++ {
		if int(s.start[b]) != below {
			t.Fatalf("%s: directory says bucket %d starts at record %d, the records say %d", when, b, s.start[b], below)
		}
		if b < numBuckets {
			below += held[b]
		}
	}
	if !s.scheduled.Load() {
		if len(s.ks) != 0 {
			t.Fatalf("%s: unscheduled store holds %d schedules", when, len(s.ks))
		}
		return
	}
	want := pps.AppendKeySchedules(nil, s.recs)
	if len(s.ks) != len(want) {
		t.Fatalf("%s: %d schedules for %d records", when, len(s.ks), len(want))
	}
	for i := range want {
		if s.ks[i] != want[i] {
			t.Fatalf("%s: schedule %d (id %d) is not its nonce's", when, i, s.recs[i].ID)
		}
	}
}

func TestScheduleMaintenanceProperty(t *testing.T) {
	pool, enc := testRecords(t, 96)
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		// A record for a random one of 48 ids carrying a random pool
		// record's metadata: ids collide often, and a replacement always
		// changes the nonce its schedule must follow.
		pick := func() pps.Encoded {
			r := pool[rng.Intn(len(pool))]
			r.ID = pool[rng.Intn(48)].ID
			return r
		}
		pickN := func() []pps.Encoded {
			recs := make([]pps.Encoded, 2+rng.Intn(12))
			for i := range recs {
				recs[i] = pick()
			}
			return recs
		}
		scans := 0
		for step := 0; step < 300; step++ {
			op := rng.Intn(5)
			if step < 20 && op == 4 {
				op = 0 // a stretch of mutations on a store never scanned
			}
			switch op {
			case 0:
				s.Insert(pick())
			case 1:
				s.Insert(pickN()...)
			case 2:
				recs := pickN()
				recs = append(recs, recs[0], recs[len(recs)/2]) // duplicate ids inside one batch
				s.Insert(recs...)
			case 3:
				if rng.Intn(4) == 0 { // rare in production too
					s.RetainStored(ring.NewArc(ring.Point(rng.Float64()), 0.2), 1+rng.Intn(3))
				}
			case 4:
				lo, hi := ring.Point(rng.Float64()), ring.Point(rng.Float64())
				if rng.Intn(3) == 0 {
					hi = lo // full ring
				}
				got, scanned, err := s.MatchArc(context.Background(), m, q, lo, hi,
					MatchOptions{Threads: 1 + rng.Intn(3), BatchSize: 1 + rng.Intn(8)})
				if err != nil {
					t.Fatal(err)
				}
				arc := s.InArc(lo, hi)
				want := m.MatchAll(q, arc)
				slices.Sort(want)
				if scanned != len(arc) || !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: MatchArc(%v, %v) = %v scanning %d, MatchAll over InArc = %v over %d",
						seed, step, lo, hi, got, scanned, want, len(arc))
				}
				scans++
			}
			checkScheduleInvariants(t, s, "after step")
		}
		if scans < 10 {
			t.Fatalf("seed %d: only %d scans in the interleaving", seed, scans)
		}
	}
}

// TestNeverScannedStoreDerivesNothing: activation is observed, not
// configured — the write-only stores (the coordinator's backend, a node
// during a bulk load) must not pay for schedules.
func TestNeverScannedStoreDerivesNothing(t *testing.T) {
	recs, _ := testRecords(t, 40)
	s := New()
	s.Insert(recs[:30]...)
	s.Insert(recs[30])
	s.InArc(0, 0)
	s.Get(recs[5].ID)
	if s.scheduled.Load() || s.ks != nil {
		t.Fatalf("a store that was never scanned holds schedules (scheduled=%v, %d held)", s.scheduled.Load(), len(s.ks))
	}
}

// TestMatchArcShortFilter: a stored record whose filter is shorter than
// MBits matches nothing instead of indexing past its slice inside a
// matcher goroutine (which takes the process down).
func TestMatchArcShortFilter(t *testing.T) {
	recs, enc := testRecords(t, 10)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	s := New()
	s.Insert(recs...)
	want, _, err := s.MatchArc(context.Background(), m, q, 0, 0, MatchOptions{})
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline scan: %v, %v", want, err)
	}
	bad := recs[1] // an "odd" record, so it matched above
	bad.ID = 12345
	bad.Filter = bad.Filter[:1]
	s.Insert(bad)
	got, scanned, err := s.MatchArc(context.Background(), m, q, 0, 0, MatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != len(recs)+1 || !slices.Equal(got, want) {
		t.Fatalf("scan over a short-filter record: got %v (scanned %d), want %v (scanned %d)", got, scanned, want, len(recs)+1)
	}
}
