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
