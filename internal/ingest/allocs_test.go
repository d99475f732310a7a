//go:build !race

package ingest

import (
	"math/rand"
	"testing"
)

// TestDecodeFrameAllocatesOnce: a WAL frame decodes into its record with
// one allocation, nonce and filter side by side in it, each capped at its
// own length. (Counted without -race, which instruments allocations.)
func TestDecodeFrameAllocatesOnce(t *testing.T) {
	frame := AppendFrame(nil, 9, testRec(rand.New(rand.NewSource(1)), 42))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("DecodeFrame allocates %.0f objects, want 1", allocs)
	}
	_, rec, _, _ := DecodeFrame(frame)
	if cap(rec.Nonce) != len(rec.Nonce) || cap(rec.Filter) != len(rec.Filter) {
		t.Errorf("nonce cap %d len %d, filter cap %d len %d: one field can grow into the other",
			cap(rec.Nonce), len(rec.Nonce), cap(rec.Filter), len(rec.Filter))
	}
}

// TestWALAppendAllocatesNothing: once warm, an Append encodes into the
// pending buffer and the flusher hands the buffer it wrote back as the
// spare, so neither regrows from nothing.
func TestWALAppendAllocatesNothing(t *testing.T) {
	w := openTestWAL(t)
	recs := testRecs(2, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.Append(recs...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Append of %d records allocates %.0f objects, want 0", len(recs), allocs)
	}
}
