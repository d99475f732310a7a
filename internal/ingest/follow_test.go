package ingest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"roar/internal/pps"
)

// follower records what a WAL applies. While gate is set, each apply
// first signals entered and then waits for the gate to open.
type follower struct {
	mu      sync.Mutex
	ids     []uint64
	gate    chan struct{}
	entered chan struct{}
}

func newFollower() *follower { return &follower{entered: make(chan struct{}, 1)} }

func (f *follower) apply(recs []pps.Encoded) {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		f.entered <- struct{}{}
		<-gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range recs {
		f.ids = append(f.ids, r.ID)
	}
}

// hold makes the next applies wait until the returned func is called.
func (f *follower) hold() (release func()) {
	gate := make(chan struct{})
	f.mu.Lock()
	f.gate = gate
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.gate = nil
		f.mu.Unlock()
		close(gate)
	}
}

func (f *follower) applied() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.ids...)
}

// logIDs lists the ids of the log's durable records in sequence order.
func logIDs(t *testing.T, w *WAL) []uint64 {
	t.Helper()
	_, recs := replayAll(t, w, 0)
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

// waitAssigned spins until the log has handed out sequence seq: an
// Append that got that far has queued its frames.
func waitAssigned(w *WAL, seq uint64) {
	for {
		w.mu.Lock()
		n := w.nextSeq
		w.mu.Unlock()
		if n >= seq {
			return
		}
		runtime.Gosched()
	}
}

// TestWALFollow: a follower gets every durable record once, in sequence
// order, and before anyone else can see it as durable.
func TestWALFollow(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(testRecs(1, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Recovered records, once and in order, before Follow returns.
	f := newFollower()
	if err := w.Follow(f.apply); err != nil {
		t.Fatal(err)
	}
	if got, want := f.applied(), logIDs(t, w); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 5 {
		t.Fatalf("Follow applied %v, the log holds %v", got, want)
	}
	if err := w.Follow(f.apply); err == nil {
		t.Fatal("a second Follow succeeded")
	}

	// Concurrent appends: each returns only after its records are
	// applied, and the follower sees the log's order.
	const appenders, appends = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				seq, err := w.Append(testRecs(int64(100+a*appends+i), 2)...)
				if err != nil {
					errs <- err
					return
				}
				if n := len(f.applied()); uint64(n) < seq {
					errs <- fmt.Errorf("Append returned sequence %d with %d records applied", seq, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := f.applied(), logIDs(t, w); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 5+appenders*appends*2 {
		t.Fatalf("the follower applied %d records, the log holds %d, or their orders differ", len(got), len(want))
	}

	// A follower blocked in apply holds Append, DurableSeq, Replay and a
	// cursor back.
	before := w.DurableSeq()
	cur := w.newCursor(before)
	defer cur.close()
	release := f.hold()
	appended := make(chan error, 1)
	go func() {
		_, err := w.Append(testRecs(7, 3)...)
		appended <- err
	}()
	<-f.entered
	if d := w.DurableSeq(); d != before {
		t.Errorf("DurableSeq %d while the follower holds the group after %d", d, before)
	}
	if seqs, _ := replayAll(t, w, before); len(seqs) != 0 {
		t.Errorf("Replay yielded %v while the follower holds them", seqs)
	}
	read := 0
	if err := cur.read(10, func(uint64, pps.Encoded) bool { read++; return true }); err != nil || read != 0 {
		t.Errorf("a cursor read %d records (%v) while the follower holds them", read, err)
	}
	select {
	case err := <-appended:
		t.Fatalf("Append returned (%v) while the follower holds its group", err)
	default:
	}
	release()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if d := w.DurableSeq(); d != before+3 {
		t.Errorf("DurableSeq %d after the follower let go, want %d", d, before+3)
	}
	if err := cur.read(10, func(uint64, pps.Encoded) bool { read++; return true }); err != nil || read != 3 {
		t.Errorf("the cursor read %d records (%v) after the follower let go, want 3", read, err)
	}
}

// TestWALFollowQueuesAppendsBehindReplay: appends that race Follow's
// replay wait for it and are applied after the records it replays.
func TestWALFollowQueuesAppendsBehindReplay(t *testing.T) {
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(testRecs(1, 4)...); err != nil {
		t.Fatal(err)
	}
	f := newFollower()
	release := f.hold()
	followed := make(chan error, 1)
	go func() { followed <- w.Follow(f.apply) }()
	<-f.entered // the replay is being applied

	const appenders = 3
	appended := make(chan error, appenders)
	for a := 0; a < appenders; a++ {
		go func() {
			_, err := w.Append(testRecs(int64(10+a), 2)...)
			appended <- err
		}()
	}
	waitAssigned(w, 4+appenders*2)
	release()
	if err := <-followed; err != nil {
		t.Fatal(err)
	}
	for a := 0; a < appenders; a++ {
		if err := <-appended; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f.applied(), logIDs(t, w); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 4+appenders*2 {
		t.Fatalf("the follower applied %v, the log holds %v", got, want)
	}
}
