package ingest

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"roar/internal/pps"
)

func testRec(rng *rand.Rand, id uint64) pps.Encoded {
	r := pps.Encoded{ID: id}
	r.Nonce = make([]byte, 16)
	r.Filter = make([]byte, 64)
	rng.Read(r.Nonce)
	rng.Read(r.Filter)
	return r
}

func testRecs(seed int64, n int) []pps.Encoded {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]pps.Encoded, n)
	for i := range recs {
		recs[i] = testRec(rng, rng.Uint64())
	}
	return recs
}

func replayAll(t *testing.T, w *WAL, after uint64) (seqs []uint64, recs []pps.Encoded) {
	t.Helper()
	err := w.Replay(after, func(seq uint64, rec pps.Encoded) bool {
		seqs = append(seqs, seq)
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, recs
}

func sameRec(a, b pps.Encoded) bool {
	return a.ID == b.ID && bytes.Equal(a.Nonce, b.Nonce) && bytes.Equal(a.Filter, b.Filter)
}

func TestWALAppendReplayReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecs(1, 10)
	seq, err := w.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("last seq %d, want 10", seq)
	}
	if d := w.DurableSeq(); d != 10 {
		t.Fatalf("durable %d after Append returned, want 10", d)
	}
	seqs, got := replayAll(t, w, 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seqs[i], i+1)
		}
		if !sameRec(got[i], recs[i]) {
			t.Fatalf("record %d does not round-trip", i)
		}
	}
	// Partial replay resumes mid-log.
	seqs, _ = replayAll(t, w, 7)
	if len(seqs) != 3 || seqs[0] != 8 {
		t.Fatalf("replay after 7 returned seqs %v", seqs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery restores the sequence space and the contents.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.DurableSeq(); got != 10 {
		t.Fatalf("recovered DurableSeq %d, want 10", got)
	}
	_, got = replayAll(t, w2, 0)
	if len(got) != 10 || !sameRec(got[9], recs[9]) {
		t.Fatalf("recovered replay lost records (%d of 10)", len(got))
	}
	// And appends continue the sequence.
	seq, err = w2.Append(testRecs(2, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-recovery append got seq %d, want 11", seq)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecs(3, 5)
	if _, err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: a complete extra frame followed by a
	// torn one at the tail of the last segment, which Close sealed.
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) != 1 {
		t.Fatalf("expected 1 segment, found %v", names)
	}
	extra := AppendFrame(nil, 6, testRecs(4, 1)[0])
	torn := AppendFrame(nil, 7, testRecs(5, 1)[0])
	torn = torn[:len(torn)-3]
	f, err := os.OpenFile(names[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(extra, torn...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery rejected a torn tail: %v", err)
	}
	defer w2.Close()
	// The complete frame survives, the torn one is gone, and the next
	// append takes the torn frame's sequence.
	if got := w2.DurableSeq(); got != 6 {
		t.Fatalf("recovered DurableSeq %d, want 6", got)
	}
	seq, err := w2.Append(testRecs(6, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("post-truncation append got seq %d, want 7", seq)
	}
	seqs, _ := replayAll(t, w2, 0)
	if len(seqs) != 7 {
		t.Fatalf("replay after torn-tail recovery returned %d records, want 7", len(seqs))
	}
}

func TestWALCorruptionMidLogRejected(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so corruption lands in a NON-last
	// segment, where truncation would silently lose fsynced data.
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecs(7, 12) {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) < 2 {
		t.Fatalf("rotation never happened: %v", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("recovery accepted corruption in the middle of the log")
	}
}

func TestWALRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := testRecs(9, 20)
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	nsegs := len(w.segs)
	cut := w.segs[nsegs-1].first - 1 // everything before the active segment
	w.mu.Unlock()
	if nsegs < 3 {
		t.Fatalf("expected >= 3 segments, got %d", nsegs)
	}
	removed, err := w.TruncateThrough(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed != nsegs-1 {
		t.Fatalf("removed %d segments, want %d", removed, nsegs-1)
	}
	// The tail is intact and the sequence space is unbroken.
	seqs, got := replayAll(t, w, cut)
	if len(seqs) == 0 || seqs[0] != cut+1 || seqs[len(seqs)-1] != 20 {
		t.Fatalf("post-truncation replay seqs %v", seqs)
	}
	for i, s := range seqs {
		if !sameRec(got[i], recs[s-1]) {
			t.Fatalf("record at seq %d corrupted by truncation", s)
		}
	}
	// TruncateThrough never deletes the active segment.
	if removed, _ := w.TruncateThrough(100); removed != 0 {
		t.Fatalf("active segment was deleted (%d removed)", removed)
	}
}

// TestWALGrowsOncePerChunk pins the mechanism by count: a flush writes
// into the zeroed tail and only one that runs past it extends the file,
// so 200 appends of ~6 KiB change the segment's length about once per
// MiB, not once per append.
func TestWALGrowsOncePerChunk(t *testing.T) {
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := testRecs(13, 64)
	growths := 0
	var path string
	var length int64
	for range 200 {
		if _, err := w.Append(recs...); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		active := w.segs[len(w.segs)-1].path
		w.mu.Unlock()
		st, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if active != path {
			path, length = active, int64(segHeaderBytes)
		}
		if st.Size() != length {
			growths++
			length = st.Size()
		}
	}
	w.mu.Lock()
	segs := w.segs
	w.mu.Unlock()
	var written int64
	for _, s := range segs {
		written += s.size - int64(segHeaderBytes)
	}
	chunks := int((written + preallocBytes - 1) / preallocBytes)
	if limit := chunks + len(segs); growths > limit {
		t.Fatalf("the active segment changed length %d times over 200 appends of %d bytes in %d segment(s), want <= %d",
			growths, written, len(segs), limit)
	}
}

// TestWALTornSegmentCreation: a crash between a segment's create and its
// fsync leaves a last file shorter than the magic. It holds no frames,
// so Open gives it its magic back and the log continues at the sequence
// its name carries.
func TestWALTornSegmentCreation(t *testing.T) {
	for _, torn := range []string{"", segMagic[:3]} {
		dir := t.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		recs := testRecs(14, 12)
		for _, r := range recs {
			if _, err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		last := w.DurableSeq()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, last+1), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(names) < 4 {
			t.Fatalf("want a log of at least 4 segments, have %d", len(names))
		}

		w2, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("a %d-byte last segment: %v", len(torn), err)
		}
		if got := w2.DurableSeq(); got != last {
			t.Fatalf("recovered DurableSeq %d, want %d", got, last)
		}
		extra := testRecs(15, 1)
		if seq, err := w2.Append(extra...); err != nil || seq != last+1 {
			t.Fatalf("append after recovery: seq %d, %v; want %d", seq, err, last+1)
		}
		seqs, got := replayAll(t, w2, 0)
		if len(seqs) != int(last)+1 || !sameRec(got[last], extra[0]) || !sameRec(got[0], recs[0]) {
			t.Fatalf("replay after recovery yielded %d records, want %d", len(seqs), last+1)
		}
		w2.Close()
	}
}

// TestWALShortClosedSegmentRejected: the same damage in a segment that
// is not the last one is corruption, not a torn creation.
func TestWALShortClosedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecs(16, 12) {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) < 4 {
		t.Fatalf("want a log of at least 4 segments, have %d", len(names))
	}
	if err := os.Truncate(names[1], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil || !strings.Contains(err.Error(), "bad segment magic") {
		t.Fatalf("open with a 3-byte closed segment: %v, want bad segment magic", err)
	}
}

// TestWALCloseKeepsSuccessorFrames: replicas sharing a WAL directory
// hand it over by reopening it. A deposed leader that closes its handle
// after the successor has appended to the same segment must not cut the
// successor's frames off with its zeroed tail.
func TestWALCloseKeepsSuccessorFrames(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecs(17, 20)
	if _, err := old.Append(recs[:10]...); err != nil {
		t.Fatal(err)
	}
	successor, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := successor.Append(recs[10:]...); err != nil || seq != 20 {
		t.Fatalf("successor append: seq %d, %v", seq, err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := successor.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	seqs, got := replayAll(t, w, 0)
	if len(seqs) != 20 || !sameRec(got[19], recs[19]) {
		t.Fatalf("reopened log holds %d records, want 20", len(seqs))
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const producers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for i := 0; i < each; i++ {
				seq, err := w.Append(testRec(rng, uint64(p)<<32|uint64(i)))
				if err != nil {
					errs <- err
					return
				}
				if d := w.DurableSeq(); d < seq {
					t.Errorf("Append returned seq %d but durable is %d", seq, d)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seqs, recs := replayAll(t, w, 0)
	if len(seqs) != producers*each {
		t.Fatalf("replayed %d records, want %d", len(seqs), producers*each)
	}
	seen := map[uint64]bool{}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("sequence hole at %d (got %d)", i+1, s)
		}
		if seen[recs[i].ID] {
			t.Fatalf("record %d appended twice", recs[i].ID)
		}
		seen[recs[i].ID] = true
	}
}

// FuzzDecodeWAL is the codec round-trip property for the frame format:
// any input DecodeFrame accepts must re-encode (AppendFrame) and
// re-decode to the identical record, and decoding must never panic on
// arbitrary bytes.
func FuzzDecodeWAL(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	f.Add(AppendFrame(nil, 1, testRec(rng, 42)))
	f.Add(AppendFrame(nil, 1<<40, pps.Encoded{ID: 7}))
	var multi []byte
	for i, r := range testRecs(12, 3) {
		multi = AppendFrame(multi, uint64(i+1), r)
	}
	f.Add(multi)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, rec, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reenc := AppendFrame(nil, seq, rec)
		seq2, rec2, n2, err := DecodeFrame(reenc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(reenc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(reenc))
		}
		if seq2 != seq || !sameRec(rec, rec2) {
			t.Fatalf("round-trip mismatch: seq %d→%d", seq, seq2)
		}
	})
}
