package ingest

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/pps"
)

// cursorModel drives one WAL and any number of cursors from a seeded
// program and checks, at every read, the cursor contract: exactly the
// appended records (after, DurableSeq], contiguous, byte-equal.
type cursorModel struct {
	t        *testing.T
	rng      *rand.Rand
	dir      string
	opts     Options
	w        *WAL
	appended []pps.Encoded // appended[i] carries sequence i+1
	oldest   uint64        // first sequence TruncateThrough has left
	readers  []*modelReader
}

// modelReader is a cursor and the sequence it has read through.
type modelReader struct {
	cur *cursor
	at  uint64
}

func (m *cursorModel) open() {
	w, err := Open(m.dir, m.opts)
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.w = w
	if got, want := w.DurableSeq(), uint64(len(m.appended)); got != want {
		m.t.Fatalf("recovered durable %d, want %d", got, want)
	}
}

func (m *cursorModel) randRec() pps.Encoded {
	r := pps.Encoded{ID: m.rng.Uint64()}
	if n := m.rng.Intn(4) * 8; n > 0 { // a quarter have no nonce
		r.Nonce = make([]byte, n)
		m.rng.Read(r.Nonce)
	}
	if n := m.rng.Intn(5) * 16; n > 0 { // a fifth have no filter
		r.Filter = make([]byte, n)
		m.rng.Read(r.Filter)
	}
	return r
}

func (m *cursorModel) append() {
	recs := make([]pps.Encoded, 1+m.rng.Intn(300))
	for i := range recs {
		recs[i] = m.randRec()
	}
	seq, err := m.w.Append(recs...)
	if err != nil {
		m.t.Fatalf("append: %v", err)
	}
	m.appended = append(m.appended, recs...)
	if seq != uint64(len(m.appended)) {
		m.t.Fatalf("append returned seq %d, want %d", seq, len(m.appended))
	}
}

// read takes up to n records from r and checks them against the model.
func (m *cursorModel) read(r *modelReader, n int) {
	want := min(uint64(n), m.w.DurableSeq()-r.at)
	got := uint64(0)
	err := r.cur.read(n, func(seq uint64, rec pps.Encoded) bool {
		if seq != r.at+1 {
			m.t.Fatalf("cursor yielded sequence %d after %d", seq, r.at)
		}
		if !sameRec(rec, m.appended[seq-1]) {
			m.t.Fatalf("record at sequence %d differs from the one appended", seq)
		}
		r.at = seq
		got++
		return true
	})
	if err != nil {
		m.t.Fatalf("cursor read after %d: %v", r.at, err)
	}
	if got != want {
		m.t.Fatalf("cursor read(%d) after %d yielded %d records, want %d (durable %d)", n, r.at-got, got, want, m.w.DurableSeq())
	}
}

func (m *cursorModel) replay() {
	after := uint64(m.rng.Intn(len(m.appended) + 2))
	at := max(after, m.oldest-1)
	err := m.w.Replay(after, func(seq uint64, rec pps.Encoded) bool {
		if seq != at+1 || !sameRec(rec, m.appended[seq-1]) {
			m.t.Fatalf("replay(%d) yielded sequence %d after %d (or a different record)", after, seq, at)
		}
		at = seq
		return true
	})
	if err != nil {
		m.t.Fatalf("replay(%d): %v", after, err)
	}
	if want := max(uint64(len(m.appended)), after); at != want {
		m.t.Fatalf("replay(%d) stopped at %d, want %d", after, at, want)
	}
}

// reopen closes the WAL, optionally leaves a torn frame at the tail of
// the last segment as a crash would, and opens it again. Cursors of the
// closed WAL must fail with ErrClosed; each is replaced by one that
// resumes where it stood.
func (m *cursorModel) reopen(torn bool) {
	if err := m.w.Close(); err != nil {
		m.t.Fatalf("close: %v", err)
	}
	for _, r := range m.readers {
		if err := r.cur.read(1, func(uint64, pps.Encoded) bool { return true }); !errors.Is(err, ErrClosed) {
			m.t.Fatalf("cursor read on a closed wal: %v, want ErrClosed", err)
		}
		r.cur.close()
	}
	if torn {
		names, _ := filepath.Glob(filepath.Join(m.dir, "wal-*.seg"))
		frame := AppendFrame(nil, uint64(len(m.appended)+1), m.randRec())
		frame = frame[:1+m.rng.Intn(len(frame)-1)]
		f, err := os.OpenFile(names[len(names)-1], os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			m.t.Fatal(err)
		}
		if _, err := f.Write(frame); err != nil {
			m.t.Fatal(err)
		}
		f.Close()
	}
	m.open()
	for _, r := range m.readers {
		r.cur = m.w.newCursor(r.at)
	}
}

func (m *cursorModel) truncate() {
	slowest := uint64(len(m.appended))
	for _, r := range m.readers {
		slowest = min(slowest, r.at)
	}
	seq := uint64(m.rng.Int63n(int64(slowest) + 1))
	if _, err := m.w.TruncateThrough(seq); err != nil {
		m.t.Fatalf("truncate through %d: %v", seq, err)
	}
	was := m.oldest
	m.w.mu.Lock()
	m.oldest = m.w.segs[0].first
	m.w.mu.Unlock()
	if m.oldest > max(seq+1, was) {
		m.t.Fatalf("truncate through %d removed records up to %d", seq, m.oldest-1)
	}
}

func runCursorProgram(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := &cursorModel{
		t: t, rng: rng, dir: t.TempDir(), oldest: 1,
		opts: Options{SegmentBytes: int64(200 + rng.Intn(600)), NoSync: true},
	}
	m.open()
	defer func() { m.w.Close() }()
	m.readers = []*modelReader{{cur: m.w.newCursor(0)}}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			m.append()
		case op < 6:
			m.read(m.readers[rng.Intn(len(m.readers))], 1+rng.Intn(400))
		case op == 6:
			// A second, independent cursor from a random point the log
			// still holds.
			at := m.oldest - 1 + uint64(rng.Int63n(int64(uint64(len(m.appended))-(m.oldest-1))+1))
			m.readers = append(m.readers, &modelReader{cur: m.w.newCursor(at), at: at})
		case op == 7:
			m.replay()
		case op == 8:
			m.reopen(rng.Intn(2) == 0)
		default:
			m.truncate()
		}
	}
	// Every cursor, however far behind, reaches the durable end.
	for _, r := range m.readers {
		m.read(r, len(m.appended)+1)
		if r.at != m.w.DurableSeq() {
			t.Fatalf("cursor stopped at %d, durable %d", r.at, m.w.DurableSeq())
		}
		r.cur.close()
	}
}

func TestCursorEqualsAppended(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runCursorProgram(t, seed, 60)
	}
}

// FuzzCursorEqualsAppended explores programs of appends, forced
// rotations, partial cursor reads, independent cursors and replays,
// reopen with and without a torn tail, and truncation behind the
// slowest cursor.
func FuzzCursorEqualsAppended(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(7), uint8(80))
	f.Add(int64(-3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runCursorProgram(t, seed, int(steps))
	})
}

// frameOffset is the byte offset of the frame with sequence seq in a
// segment starting at first, for records appended in order.
func frameOffset(recs []pps.Encoded, first, seq uint64) int {
	off := segHeaderBytes
	for s := first; s < seq; s++ {
		off += len(AppendFrame(nil, s, recs[s-1]))
	}
	return off
}

// TestCorruptClosedSegmentStallsDrain: a damaged frame in the middle of
// a closed segment must stop the drain at the last good sequence and
// fail Replay; it used to end that segment quietly, deliver the next
// segment's records and advance the watermark over the rest of this
// one. Bytes past the durable end of the active segment are still not
// an error: they are not read.
func TestCorruptClosedSegmentStallsDrain(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := testRecs(31, 30)
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	if len(segs) < 2 {
		t.Fatalf("rotation never happened: %d segments", len(segs))
	}
	const damaged = 5
	if segs[1].first <= damaged+1 {
		t.Fatalf("sequence %d is not in the middle of the first segment (next starts at %d)", damaged, segs[1].first)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameOffset(recs, 1, damaged+1)-1] ^= 0xff // last filter byte of the damaged frame
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed []uint64
	err = w.Replay(0, func(seq uint64, _ pps.Encoded) bool {
		replayed = append(replayed, seq)
		return true
	})
	if err == nil {
		t.Fatalf("replay over a damaged frame returned nil after yielding %v", replayed)
	}
	if len(replayed) != damaged-1 {
		t.Fatalf("replay yielded %v, want exactly 1..%d", replayed, damaged-1)
	}

	var readErrs atomic.Int32
	s := &sink{}
	c := NewConsumer(w, ConsumerConfig{
		Route: staticRoute(Target{Key: "s", Push: s.push}),
		After: fastAfter,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "reading wal batch") {
				readErrs.Add(1)
			}
		},
	})
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, damaged-1)
	for deadline := time.Now().Add(10 * time.Second); readErrs.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled drain never logged the read error")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Drained(); got != damaged-1 {
		t.Fatalf("drained watermark %d, want it held at %d", got, damaged-1)
	}
	if got, _ := s.ids(); len(got) != damaged-1 {
		t.Fatalf("delivered %d records past a damaged frame, want %d", len(got), damaged-1)
	}

	// A torn tail past the durable end of the active segment.
	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendFrame(nil, 31, recs[0])
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	seqs, _ := replayAll(t, w, active.first-1)
	if len(seqs) == 0 || seqs[len(seqs)-1] != 30 {
		t.Fatalf("replay of the active segment with a torn tail yielded %v, want through 30", seqs)
	}
}

// TestDrainDecodesEachFrameOnce pins the drain's cost by exact counts:
// 10 000 records drained in 256-record batches decode 10 000 frames and
// read every segment byte once. Re-reading the segment for every batch
// decoded about 200 000.
func TestDrainDecodesEachFrameOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 10000
	seq, err := w.Append(testRecs(41, n)...)
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push})})
	c.Start(0)
	waitDrained(t, c, seq)
	c.Stop()
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) != 1 {
		t.Fatalf("expected one segment, found %v", names)
	}
	st, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.calls != (n+255)/256 {
		t.Fatalf("drained in %d batches, want %d", s.calls, (n+255)/256)
	}
	if c.cur.frames != n {
		t.Fatalf("decoded %d frames to drain %d records", c.cur.frames, n)
	}
	if c.cur.bytesRead != st.Size() {
		t.Fatalf("read %d bytes of a %d-byte segment", c.cur.bytesRead, st.Size())
	}
}

// TestCursorPositioningSkipsWithoutDecoding: resuming at a watermark
// passes over the frames before it by header and sequence alone.
func TestCursorPositioningSkipsWithoutDecoding(t *testing.T) {
	w := openTestWAL(t)
	recs := testRecs(42, 1000)
	if _, err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var frames int64
	read := func() {
		cur := w.newCursor(990)
		defer cur.close()
		got = got[:0]
		for range 3 { // 4 + 4 + 2
			if err := cur.read(4, func(seq uint64, rec pps.Encoded) bool {
				if !sameRec(rec, recs[seq-1]) {
					t.Errorf("record at sequence %d differs", seq)
				}
				got = append(got, seq)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		frames = cur.frames
	}
	// The cursor, its file and buffer, and two slices per yielded record;
	// decoding the 990 frames before them would be ~2 000.
	if allocs := testing.AllocsPerRun(5, read); allocs > 60 {
		t.Errorf("positioning past 990 frames and reading 10 allocated %v times", allocs)
	}
	if len(got) != 10 || got[0] != 991 || got[9] != 1000 {
		t.Fatalf("cursor after 990 yielded %v", got)
	}
	if frames != 10 {
		t.Fatalf("decoded %d frames to yield 10", frames)
	}
}

// TestCursorTailsUnderConcurrentAppend runs one appender, one tailing
// consumer and repeated whole-log replays at once over many rotations:
// what the consumer delivers is gap-free and never ahead of a durable
// watermark read after the delivery, and every replay sees a gap-free
// prefix. Run under -race.
func TestCursorTailsUnderConcurrentAppend(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 4 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const total = 3000 // ~100-byte frames: about 70 rotations

	var mu sync.Mutex
	delivered := uint64(0)
	push := func(_ context.Context, recs []pps.Encoded) error {
		durable := w.DurableSeq()
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if r.ID != delivered+1 {
				t.Errorf("consumer delivered sequence %d after %d", r.ID, delivered)
			}
			delivered = r.ID
		}
		if delivered > durable {
			t.Errorf("consumer delivered through %d, durable is %d", delivered, durable)
		}
		return nil
	}
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: push}), BatchSize: 37})
	c.Start(0)
	defer c.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			at := uint64(0)
			err := w.Replay(0, func(seq uint64, rec pps.Encoded) bool {
				if seq != at+1 || rec.ID != seq {
					t.Errorf("replay yielded sequence %d (id %d) after %d", seq, rec.ID, at)
					return false
				}
				at = seq
				return true
			})
			if err != nil {
				t.Errorf("replay: %v", err)
				return
			}
			if d := w.DurableSeq(); at > d {
				t.Errorf("replay reached %d, durable is %d", at, d)
			}
		}
	}()

	rng := rand.New(rand.NewSource(43))
	for next := uint64(1); next <= total; {
		recs := make([]pps.Encoded, 1+rng.Intn(20))
		for i := range recs {
			recs[i] = testRec(rng, next)
			next++
		}
		if _, err := w.Append(recs...); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, c, w.DurableSeq())
	close(stop)
	wg.Wait()
	w.mu.Lock()
	rotations := len(w.segs) - 1
	w.mu.Unlock()
	if rotations < 20 {
		t.Fatalf("only %d rotations", rotations)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != w.DurableSeq() {
		t.Fatalf("consumer delivered through %d of %d", delivered, w.DurableSeq())
	}
}
