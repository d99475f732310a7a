package ingest

import (
	"context"
	"errors"
	"math/rand"
	"os"
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
	// zeroedCrashes counts crashes that left zeros past the last frame.
	zeroedCrashes int
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
	// 1 to 256 records: small batches end inside a segment's zeroed
	// tail, large ones force rotations.
	recs := make([]pps.Encoded, 1<<m.rng.Intn(9))
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
	// Every closed segment is sealed: its file ends at its last frame.
	m.w.mu.Lock()
	closed := append([]segment(nil), m.w.segs[:len(m.w.segs)-1]...)
	m.w.mu.Unlock()
	for _, s := range closed {
		st, err := os.Stat(s.path)
		if err != nil {
			m.t.Fatal(err)
		}
		if st.Size() != s.size {
			m.t.Fatalf("closed segment %s is %d bytes long, its frames end at %d", s.path, st.Size(), s.size)
		}
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

// crash abandons w as a killed process would: nothing is flushed or
// sealed, and the file is closed as it stands. Like Close, it makes the
// cursors of w fail with ErrClosed.
func (w *WAL) crash() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.f.Close()
}

// reopen closes the WAL, or abandons it as a crash would (its zeroed
// tail stays), optionally leaves a torn frame at the durable end of the
// last segment as a crash mid-write would, and opens it again. Cursors
// of the closed WAL must fail with ErrClosed; each is replaced by one
// that resumes where it stood.
func (m *cursorModel) reopen(crash, torn bool) {
	m.w.mu.Lock()
	last := m.w.segs[len(m.w.segs)-1]
	m.w.mu.Unlock()
	if crash {
		m.w.crash()
		if st, err := os.Stat(last.path); err == nil && st.Size() > last.size {
			m.zeroedCrashes++
		}
	} else if err := m.w.Close(); err != nil {
		m.t.Fatalf("close: %v", err)
	}
	for _, r := range m.readers {
		if err := r.cur.read(1, func(uint64, pps.Encoded) bool { return true }); !errors.Is(err, ErrClosed) {
			m.t.Fatalf("cursor read on a closed wal: %v, want ErrClosed", err)
		}
		r.cur.close()
	}
	if torn {
		// Cut the frame before its last non-zero byte: the zeros a crash
		// leaves after the cut must not complete it.
		frame := AppendFrame(nil, uint64(len(m.appended)+1), m.randRec())
		end := len(frame) - 1
		for frame[end] == 0 {
			end--
		}
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
		if err != nil {
			m.t.Fatal(err)
		}
		if _, err := f.WriteAt(frame[:1+m.rng.Intn(end)], last.size); err != nil {
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

// runCursorProgram plays one seeded program and returns how many of its
// crashes left a zeroed tail behind.
func runCursorProgram(t *testing.T, seed int64, steps int) (zeroedCrashes int) {
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
			m.reopen(rng.Intn(2) == 0, rng.Intn(2) == 0)
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
	return m.zeroedCrashes
}

func TestCursorEqualsAppended(t *testing.T) {
	zeroed := 0
	for seed := int64(1); seed <= 40; seed++ {
		zeroed += runCursorProgram(t, seed, 60)
	}
	if zeroed == 0 {
		t.Fatal("no program crashed with a zeroed tail in its last segment")
	}
}

// FuzzCursorEqualsAppended explores programs of appends, forced
// rotations, partial cursor reads, independent cursors and replays,
// clean and crash reopen with and without a torn frame at the durable
// end, and truncation behind the slowest cursor.
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
		Clock: fast,
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
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push}), BatchSize: 256})
	c.Start(0)
	waitDrained(t, c, seq)
	c.Stop()
	w.mu.Lock()
	segs := w.segs
	w.mu.Unlock()
	if len(segs) != 1 {
		t.Fatalf("expected one segment, found %d", len(segs))
	}
	if s.calls != (n+255)/256 {
		t.Fatalf("drained in %d batches, want %d", s.calls, (n+255)/256)
	}
	if c.cur.frames != n {
		t.Fatalf("decoded %d frames to drain %d records", c.cur.frames, n)
	}
	if c.cur.bytesRead != segs[0].size {
		t.Fatalf("read %d bytes of a segment whose frames end at %d", c.cur.bytesRead, segs[0].size)
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

// TestTailReadsFromWhereItStopped: consecutive ranges of a Tail read
// each frame once, from where the last read ended, across a rotation;
// a range that starts anywhere else re-positions it and yields exactly
// that range. Concurrent appends land beside the reads (run under
// -race).
func TestTailReadsFromWhereItStopped(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 16 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := testRecs(43, 600)
	if _, err := w.Append(recs[:300]...); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 300; i < len(recs); i += 20 {
			if _, err := w.Append(recs[i : i+20]...); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	tail := w.Tail()
	defer tail.Close()
	read := func(after uint64, n int) {
		t.Helper()
		want := after + 1
		if err := tail.Read(after, n, func(seq uint64, rec pps.Encoded) bool {
			if seq != want || !sameRec(rec, recs[seq-1]) {
				t.Errorf("read (%d, +%d]: sequence %d, want %d with its record", after, n, seq, want)
			}
			want++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got := want - after - 1; got != uint64(n) {
			t.Fatalf("read (%d, +%d] yielded %d records", after, n, got)
		}
	}
	for after := uint64(0); after < 300; after += 16 {
		read(after, int(min(16, 300-after)))
	}
	if tail.cur.frames != 300 {
		t.Fatalf("consecutive ranges decoded %d frames to yield 300", tail.cur.frames)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	read(300, 300)
	if tail.cur.frames != 600 {
		t.Fatalf("following the appends decoded %d frames in all, want 600", tail.cur.frames)
	}
	read(100, 5) // an older range re-positions
	if tail.cur.frames != 605 {
		t.Fatalf("re-positioned tail decoded %d frames to yield 5", tail.cur.frames-600)
	}
	read(105, 3)
}

// TestTailServesRequestersInTurn: requesters that each follow the log
// from where their own last range ended, taking turns on one Tail as
// frontends do on the coordinator's, read about the frames they ask
// for: each re-positions at a mark, never at the start of its segment.
// Without marks every turn re-reads its segment from the start, and the
// bytes read grow with the square of the log.
func TestTailServesRequestersInTurn(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const requesters, batch, batches = 3, 16, 40
	recs := testRecs(47, batch*batches)
	tail := w.Tail()
	defer tail.Close()
	var ends [requesters]uint64
	for b := 0; b < batches; b++ {
		if _, err := w.Append(recs[b*batch : (b+1)*batch]...); err != nil {
			t.Fatal(err)
		}
		for r := range ends {
			want := ends[r] + 1
			if err := tail.Read(ends[r], batch, func(seq uint64, rec pps.Encoded) bool {
				if seq != want || !sameRec(rec, recs[seq-1]) {
					t.Errorf("requester %d: sequence %d, want %d with its record", r, seq, want)
				}
				want++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			ends[r] = want - 1
		}
	}
	w.mu.Lock()
	logBytes := w.segs[len(w.segs)-1].size
	segs := len(w.segs)
	w.mu.Unlock()
	if segs != 1 {
		t.Fatalf("the log spans %d segments, want 1", segs)
	}
	if got, want := tail.cur.frames, int64(requesters*batch*batches); got != want {
		t.Errorf("decoded %d frames, want %d", got, want)
	}
	if got := tail.cur.bytesRead; got > requesters*logBytes {
		t.Errorf("read %d bytes for %d requesters of a %d-byte log", got, requesters, logBytes)
	}
}
