package pps

import (
	"encoding/binary"
	mrand "math/rand"
	"slices"
	"testing"
)

// TestLanesSelected: a process takes the lane path exactly when the CPU
// has AVX-512F with the OS saving its state (Linux lists avx512f in
// /proc/cpuinfo only then, which cross-checks the CPUID and XGETBV
// probe) and the build carries hmac16.
func TestLanesSelected(t *testing.T) {
	flags := cpuFlags(t)
	if want := lanesBuilt && flags["avx512f"]; useLanes != want {
		t.Fatalf("useLanes = %v, want %v (hmac16 built: %v; cpuinfo avx512f=%v)", useLanes, want, lanesBuilt, flags["avx512f"])
	}
	m, q, _ := kernelCorpus(t, 1, 2)
	if got := m.NewRun(q).lanes != nil; got != useLanes {
		t.Fatalf("a Run of 32-byte elements has lanes = %v, want %v", got, useLanes)
	}
}

// skipWithoutLanes skips a test of the lane path on a host that cannot
// run it.
func skipWithoutLanes(t testing.TB) {
	t.Helper()
	if !useLanes {
		t.Skipf("no lane path on this host (hmac16 built: %v; AVX-512F usable: false)", lanesBuilt)
	}
}

// TestHMAC16MatchesHMAC: every lane of the 16-lane kernels is
// crypto/hmac's leading 8 bytes, for keys of any length (schedules from
// AppendKeySchedules) and random 32-byte elements. hmac16 (one key, an
// element per lane) is checked whatever the lanes hold: all distinct,
// repeated, or all one element. hmac16el (one element, keys by index)
// is checked for every element of a 17-element trapdoor, with indices
// distinct, repeated, all one, and at the last schedule. hmac16el8's
// eight digest words are checked likewise for words of 0 to 55 bytes
// (every length whose padding fits one block), with rows distinct,
// repeated and at the last schedule.
func TestHMAC16MatchesHMAC(t *testing.T) {
	skipWithoutLanes(t)
	rng := mrand.New(mrand.NewSource(40))
	recs := make([]Encoded, 50)
	for i := range recs {
		recs[i].Nonce = make([]byte, rng.Intn(100))
		rng.Read(recs[i].Nonce)
	}
	ks := AppendKeySchedules(nil, recs)
	elems := make([][]byte, 20)
	for i := range elems {
		elems[i] = make([]byte, 32)
		rng.Read(elems[i])
	}
	check := func(kernel string, trial int, h *[2][16]uint32, rec *[16]int, el *[16]int32) {
		t.Helper()
		for i := range rec {
			want := prf(recs[rec[i]].Nonce, elems[el[i]])
			if h[0][i] != binary.BigEndian.Uint32(want) || h[1][i] != binary.BigEndian.Uint32(want[4:]) {
				t.Fatalf("%s trial %d lane %d (record %d, element %d): %08x %08x, want %x", kernel, trial, i, rec[i], el[i], h[0][i], h[1][i], want[:8])
			}
		}
	}
	var (
		rec [16]int
		el  [16]int32
		msg [16][8]uint32
		h   [2][16]uint32
	)
	for trial := 0; trial < 300; trial++ {
		ne := []int{len(elems), 2, 1}[trial%3] // distinct, repeats, all one
		e0, r := rng.Intn(len(elems)-ne+1), rng.Intn(len(recs))
		for i := range rec {
			rec[i], el[i] = r, int32(e0+rng.Intn(ne))
			for w := range msg[i] {
				msg[i][w] = binary.BigEndian.Uint32(elems[el[i]][4*w:])
			}
		}
		hmac16(&ks[r], &msg, &h)
		check("hmac16", trial, &h, &rec, &el)
	}

	// hmac16el: each element of a 17-element trapdoor under 16 keys.
	q := Query{Preds: []BloomQuery{{Trapdoor: elems[:17]}}}
	l := (&Matcher{mBits: 1}).NewRun(q).lanes
	var idx [16]uint16
	for trial := 0; trial < 4*17; trial++ {
		e := trial % 17
		for i := range idx {
			switch trial / 17 {
			case 0: // distinct
				rec[i] = (trial + 3*i) % len(recs)
			case 1: // repeated
				rec[i] = 7 + i%3
			case 2: // all one
				rec[i] = 11
			case 3: // the last schedule among others
				rec[i] = len(ks) - 1 - i%2*rng.Intn(len(ks))
			}
			idx[i], el[i] = uint16(rec[i]), int32(e)
		}
		hmac16el(&ks[0], &idx, &l.wk[e], &h)
		check("hmac16el", trial, &h, &rec, &el)
	}

	var d [16][8]uint32
	for trial := 0; trial < 3*56; trial++ {
		word := make([]byte, trial%56)
		rng.Read(word)
		for i := range idx {
			switch trial / 56 {
			case 0: // distinct
				rec[i] = (trial + 3*i) % len(recs)
			case 1: // repeated
				rec[i] = 7 + i%3
			case 2: // the last schedule among others
				rec[i] = len(ks) - 1 - i%2*rng.Intn(len(ks))
			}
			idx[i] = uint16(rec[i])
		}
		var wk [64]uint32
		scheduleWK(&wk, appendPadded(nil, word))
		hmac16el8(&ks[0], &idx, &wk, &d)
		for i := range idx {
			want := prf(recs[rec[i]].Nonce, word)
			for w := range d[i] {
				if d[i][w] != binary.BigEndian.Uint32(want[4*w:]) {
					t.Fatalf("hmac16el8 trial %d lane %d (record %d, %d-byte word) word %d: %08x, want %x", trial, i, rec[i], len(word), w, d[i][w], want)
				}
			}
		}
	}
}

// laneCase is one random scan FuzzLanesMatchPerRecord derives from its
// inputs: a query, records whose filters are dense enough that some
// match, and the batches the records arrive in. Shape bits 0-1 choose
// one to three predicates, bit 2 OR, bit 3 an element of another size;
// bit 4 makes one record in four short, so the sample holds short
// filters; bit 5 ends the first batch two samples before the quota, so
// the second straddles the SelectivitySamples-th sample.
func laneCase(seed int64, n uint16, shape uint8) (*Matcher, Query, []Encoded, []int) {
	rng := mrand.New(mrand.NewSource(seed))
	m := &Matcher{mBits: 1 + rng.Intn(3000)}
	q := Query{Op: And}
	if shape&4 != 0 {
		q.Op = Or
	}
	for p := 0; p < 1+int(shape%4)%3; p++ {
		var td [][]byte
		switch k := rng.Intn(8); {
		case k == 0: // vacuously true
		case k == 1 && shape&8 != 0: // a Run the lane path cannot take
			td = append(td, make([]byte, 31+2*rng.Intn(2)))
		default:
			for range 1 + rng.Intn(4) + 13*rng.Intn(2) {
				td = append(td, make([]byte, 32))
			}
		}
		for _, x := range td {
			rng.Read(x)
		}
		q.Preds = append(q.Preds, BloomQuery{Trapdoor: td})
	}
	short := 20
	if shape&16 != 0 {
		short = 4
	}
	recs := make([]Encoded, int(n)%1000)
	for i := range recs {
		r := &recs[i]
		r.ID = rng.Uint64()
		r.Nonce = make([]byte, 16)
		rng.Read(r.Nonce)
		size := (m.mBits + 7) / 8
		switch rng.Intn(short) {
		case 0:
			size = rng.Intn(size) // short: matches nothing
		case 1:
			size += rng.Intn(4)
		}
		r.Filter = make([]byte, size)
		density := []float64{0.5, 0.9, 0.97, 1}[rng.Intn(4)]
		for b := 0; b < 8*size; b++ {
			if rng.Float64() < density {
				r.Filter[b/8] |= 1 << (b % 8)
			}
		}
	}
	var batches []int
	left := len(recs)
	if shape&32 != 0 {
		samples := 0
		for i := range recs {
			if len(recs[i].Filter)*8 >= m.mBits {
				samples++
			}
			if samples == SelectivitySamples-2 {
				batches = append(batches, i+1)
				left -= i + 1
				break
			}
		}
	}
	for left > 0 {
		b := min(left, rng.Intn(301))
		batches = append(batches, b)
		left -= b
	}
	return m, q, recs, batches
}

// FuzzLanesMatchPerRecord: the lane path and the per-record path return
// the same ids in the same order, and have sampled as many records and
// settled on the same order, batch by batch, whatever the records
// (short filters among them, inside the sample too), the predicates
// (one to three, empty ones, elements of other sizes), AND or OR, and
// the batch lengths (0-300, and batches that straddle the end of
// sampling).
func FuzzLanesMatchPerRecord(f *testing.F) {
	for shape := range uint8(16) {
		f.Add(int64(shape), uint16(700), shape)
	}
	for _, shape := range []uint8{17, 18, 21, 22, 33, 34, 37, 38, 49, 50, 53, 54} {
		f.Add(int64(shape), uint16(900), shape)
	}
	f.Add(int64(99), uint16(40), uint8(0))
	f.Add(int64(98), uint16(0), uint8(1))
	// Batches of more than 256 records: AND and OR, one to three
	// predicates, short filters inside the sample.
	f.Add(int64(100), uint16(999), uint8(1))
	f.Add(int64(100), uint16(999), uint8(5))
	f.Add(int64(102), uint16(999), uint8(2))
	f.Add(int64(102), uint16(999), uint8(6))
	f.Add(int64(102), uint16(999), uint8(18))
	f.Add(int64(102), uint16(999), uint8(22))
	// Fewer records than laneMin: every pass on the per-record kernel.
	for n := range uint16(laneMin) {
		f.Add(int64(110+n), n, uint8(n%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		skipWithoutLanes(t)
		m, q, recs, batches := laneCase(seed, n, shape)
		ks := AppendKeySchedules(nil, recs)
		lanes, ref := m.NewRun(q), m.NewRun(q)
		ref.lanes = nil
		var got, want []uint64
		from := 0
		for _, b := range batches {
			got = lanes.MatchScheduled(recs[from:from+b], ks[from:from+b], got)
			want = ref.MatchScheduled(recs[from:from+b], ks[from:from+b], want)
			if !slices.Equal(got, want) {
				t.Fatalf("after records [%d, %d) (%v, %d predicates, lanes %v): lane path %v, per-record %v",
					from, from+b, q.Op, len(q.Preds), lanes.lanes != nil, got, want)
			}
			if lanes.Sampled() != ref.Sampled() || !slices.Equal(lanes.Order(), ref.Order()) {
				t.Fatalf("after records [%d, %d) (%v, %d predicates, lanes %v): lane path sampled %d and settled on %v, per-record %d and %v",
					from, from+b, q.Op, len(q.Preds), lanes.lanes != nil, lanes.Sampled(), lanes.Order(), ref.Sampled(), ref.Order())
			}
			from += b
		}
	})
}

// TestLanesEvaluatePerRecordPairs: over windows of every size up to and
// past LaneWindow, the lane path matches the per-record loop and
// evaluates exactly the (record, element) pairs it does: every element
// of every predicate up to the first whose bit is clear for a sampled
// record, the same through the first predicate that decides in the
// settled order, and nothing for a short filter. A record an OR has
// decided, or a dead lane's result, would show as more.
func TestLanesEvaluatePerRecordPairs(t *testing.T) {
	skipWithoutLanes(t)
	for trial, size := range []int{1, laneMin - 1, 17, 300, LaneWindow - 1, LaneWindow + 700} {
		for shape := uint8(0); shape < 64; shape += 5 {
			if shape&8 != 0 {
				continue // an element of another size: no lane path
			}
			m, q, recs, _ := laneCase(int64(trial*64)+int64(shape), 0, shape)
			recs = slices.Grow(recs, size)
			rng := mrand.New(mrand.NewSource(int64(trial)))
			for len(recs) < size {
				_, _, more, _ := laneCase(rng.Int63(), 999, shape) // filters sized for another MBits: some short
				recs = append(recs, more[:min(len(more), size-len(recs))]...)
			}
			ks := AppendKeySchedules(nil, recs)
			lanes, ref := m.NewRun(q), m.NewRun(q)
			ref.lanes = nil
			got := lanes.MatchScheduled(recs, ks, nil)
			want := ref.MatchScheduled(recs, ks, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%d records, shape %d: lane path %v, per-record %v", size, shape, got, want)
			}
			if evals, wantEvals := lanes.lanes.evals, perRecordEvals(m, q, ref.Order(), recs); evals != wantEvals {
				t.Fatalf("%d records, shape %d (%v, %d predicates): lane path evaluated %d pairs, per-record %d",
					size, shape, q.Op, len(q.Preds), evals, wantEvals)
			}
		}
	}
}

// perRecordEvals counts the (record, element) pairs the per-record loop
// evaluates for recs, sampling its first SelectivitySamples records and
// then following order.
func perRecordEvals(m *Matcher, q Query, order []int, recs []Encoded) int {
	evals, sampled := 0, 0
	holds := func(rec Encoded, p int) bool {
		for _, x := range q.Preds[p].Trapdoor {
			evals++
			if !getBit(rec.Filter, int(prfUint64(rec.Nonce, x)%uint64(m.mBits))) {
				return false
			}
		}
		return true
	}
	for _, rec := range recs {
		switch {
		case len(rec.Filter)*8 < m.mBits:
		case len(q.Preds) > 1 && sampled < SelectivitySamples:
			for p := range q.Preds {
				holds(rec, p)
			}
			sampled++
		default:
			if order == nil {
				order = []int{0}
			}
			for _, p := range order {
				if holds(rec, p) != (q.Op == And) {
					break
				}
			}
		}
	}
	return evals
}
