package membership

import (
	"context"
	"sync"
	"testing"

	"roar/internal/ingest"
	"roar/internal/pps"
)

// TestIngestAppendFollowsWALOrder: the appenders one group commit wakes
// reach the coordinator in any order, yet the backend must keep the
// write of an id that the WAL orders last, since the next Join or
// ChangeP copies the backend's version to new owners while the WAL and
// the drain hold the log's. Each round races two appends of one id
// beside four appenders of other ids.
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
		id, last := uint64(round*appenders+1), byte(0)
		if seqs[1] > seqs[0] {
			last = 1
		}
		if got, ok := c.backend.Get(id); !ok || got.Filter[0] != last {
			t.Fatalf("round %d: the WAL orders version %d of id %d last (sequences %d and %d), the backend holds version %d",
				round, last, id, seqs[0], seqs[1], got.Filter[0])
		}
	}
}

// TestBackendHoldsEveryDurableRecord: the log applies each group commit
// to the backend before anyone can see it as durable, so a Join or
// ChangeP that copies the backend never misses a record the drain may
// already have delivered under the epoch before. Six appenders write
// distinct ids while a poller reads the durable sequence and then the
// backend's size: a backend that holds every durable record is never
// the shorter.
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
	polls, short := 0, 0
	for finished := false; !finished; polls++ {
		select {
		case <-done:
			finished = true
		default:
		}
		// Durable first: the backend only grows, so a size read after it
		// must cover it.
		durable := wal.DurableSeq()
		if uint64(c.backend.Len()) < durable {
			short++
		}
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if short > 0 {
		t.Errorf("%d of %d polls saw the backend hold fewer records than the log's durable sequence", short, polls)
	}
	if held, durable := c.backend.Len(), wal.DurableSeq(); held != appenders*appends || durable != appenders*appends {
		t.Errorf("after the appends the backend holds %d records and the log %d, want %d", held, durable, appenders*appends)
	}
}
