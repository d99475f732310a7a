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

// TestHMAC16MatchesHMAC: every lane of hmac16 is crypto/hmac's leading
// 8 bytes, for keys of any length (schedules from AppendKeySchedules)
// and random 32-byte elements, whatever the lanes hold: all distinct,
// repeated, or all one key and element.
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
	l := &lanes{msg: make([][8]uint32, len(elems))}
	for i := range elems {
		elems[i] = make([]byte, 32)
		rng.Read(elems[i])
		for w := range l.msg[i] {
			l.msg[i][w] = binary.BigEndian.Uint32(elems[i][4*w:])
		}
	}
	var rec [16]int
	for trial := 0; trial < 300; trial++ {
		nr, ne := len(recs), len(elems)
		switch trial % 3 {
		case 1: // repeats
			nr, ne = 3, 2
		case 2: // one record, one element
			nr, ne = 1, 1
		}
		r0, e0 := rng.Intn(len(recs)-nr+1), rng.Intn(len(elems)-ne+1)
		for i := range rec {
			rec[i], l.el[i] = r0+rng.Intn(nr), int32(e0+rng.Intn(ne))
			l.setKey(i, &ks[rec[i]])
		}
		hmac16(&l.kt, &l.msg[0], &l.el, &l.h)
		for i := range rec {
			want := prf(recs[rec[i]].Nonce, elems[l.el[i]])
			if l.h[0][i] != binary.BigEndian.Uint32(want) || l.h[1][i] != binary.BigEndian.Uint32(want[4:]) {
				t.Fatalf("trial %d lane %d (record %d, element %d): %08x %08x, want %x", trial, i, rec[i], l.el[i], l.h[0][i], l.h[1][i], want[:8])
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
