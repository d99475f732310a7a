package membership

import (
	"context"
	"sync"
	"testing"

	"roar/internal/ingest"
	"roar/internal/pps"
)

// TestIngestAppendFollowsWALOrder: the appenders one group commit wakes
// return in any order, yet once caught up the backend must hold the
// write of an id that the WAL orders last, since the next Join or
// ChangeP copies the backend's version to new owners while the drain
// delivers the log's. Each round races two appends of one id beside
// four appenders of other ids, then catches up.
func TestIngestAppendFollowsWALOrder(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const rounds, appenders = 2000, 6
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		seqs := make([]uint64, appenders)
		errs := make([]error, appenders)
		for i := 0; i < appenders; i++ {
			// Appenders 0 and 1 write versions 0 and 1 of one id; the
			// others write ids of their own.
			rec := pps.Encoded{ID: uint64(round*appenders + max(i, 1)), BloomMetadata: pps.BloomMetadata{
				Nonce: make([]byte, 16), Filter: []byte{byte(i)},
			}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				seqs[i], errs[i] = c.IngestAppend(ctx, []pps.Encoded{rec})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.catchUp(); err != nil {
			t.Fatal(err)
		}
		id, last := uint64(round*appenders+1), byte(0)
		if seqs[1] > seqs[0] {
			last = 1
		}
		got, ok := c.backend.Get(id)
		if !ok {
			t.Fatalf("round %d: the backend lacks id %d after catching up", round, id)
		}
		if got.Filter[0] != last {
			t.Fatalf("round %d: the WAL orders version %d of id %d last (sequences %d and %d), the backend holds version %d",
				round, last, id, seqs[0], seqs[1], got.Filter[0])
		}
	}
}

// TestBackendHoldsEveryDurableRecord: a push catches the backend up
// after its topology is visible to the drain, and the drain routes only
// durable records, so a catch-up must cover every record durable when
// it starts: then a Join or ChangeP that copies the backend never misses
// a record the drain delivered under the epoch before. Six appenders
// write distinct ids while two pollers, as two pushes would, each read
// the durable sequence, catch up and read the backend's size: it is
// never the shorter.
func TestBackendHoldsEveryDurableRecord(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const appenders, appends = 6, 2000
	var wg sync.WaitGroup
	errs := make([]error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				rec := pps.Encoded{ID: uint64(a*appends + i + 1), BloomMetadata: pps.BloomMetadata{
					Nonce: make([]byte, 16), Filter: []byte{byte(a)},
				}}
				if _, errs[a] = c.IngestAppend(ctx, []pps.Encoded{rec}); errs[a] != nil {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	const pollers = 2
	var polled sync.WaitGroup
	polls, short := make([]int, pollers), make([]int, pollers)
	for g := 0; g < pollers; g++ {
		polled.Add(1)
		go func() {
			defer polled.Done()
			for finished := false; !finished; polls[g]++ {
				select {
				case <-done:
					finished = true
				default:
				}
				// Durable first, as a push sees the drain's routes before
				// it catches up.
				durable := wal.DurableSeq()
				if err := c.catchUp(); err != nil {
					t.Error(err)
					return
				}
				if uint64(c.backend.Len()) < durable {
					short[g]++
				}
			}
		}()
	}
	polled.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := range short {
		if short[g] > 0 {
			t.Errorf("poller %d: %d of %d polls saw the backend hold fewer records than the log's durable sequence", g, short[g], polls[g])
		}
	}
	if err := c.catchUp(); err != nil {
		t.Fatal(err)
	}
	if held, durable := c.backend.Len(), wal.DurableSeq(); held != appenders*appends || durable != appenders*appends {
		t.Errorf("after the appends the backend holds %d records and the log %d, want %d", held, durable, appenders*appends)
	}
}

// TestBackendFillsOnlyOnPush: writes never touch the backend; the first
// push reads the whole log into it in one catch-up, batches of
// catchUpBatch and all, and hands the joined node every record.
func TestBackendFillsOnlyOnPush(t *testing.T) {
	wal, err := ingest.Open(t.TempDir(), ingest.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{P: 1, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const n = 2*catchUpBatch + 5
	var seq uint64
	for i := 0; i < n; i += 100 {
		batch := make([]pps.Encoded, min(100, n-i))
		for j := range batch {
			batch[j] = pps.Encoded{ID: uint64(i+j) * 0x9e3779b97f4a7c15, BloomMetadata: pps.BloomMetadata{
				Nonce: make([]byte, 16), Filter: []byte{byte(j)},
			}}
		}
		if seq, err = c.IngestAppend(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if held := c.backend.Len(); held != 0 || c.applied != 0 {
		t.Fatalf("after %d appends and no push the backend holds %d records through sequence %d, want none", n, held, c.applied)
	}
	nodes, addrs := startNodes(t, slimEncoder(), 1)
	if _, err := c.Join(ctx, addrs[0], 1); err != nil {
		t.Fatal(err)
	}
	if held := c.backend.Len(); held != n || c.applied != seq {
		t.Fatalf("after the first Join the backend holds %d records through sequence %d, want %d through %d", held, c.applied, n, seq)
	}
	if got := nodes[0].Store().Len(); got != n {
		t.Fatalf("the joined node stores %d records, want %d", got, n)
	}
	if pushed := c.ObjectsPushed(); pushed != n {
		t.Fatalf("the Join pushed %d records, want %d", pushed, n)
	}
}
